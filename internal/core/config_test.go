package core

import "testing"

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("Table 1 baseline rejected: %v", err)
	}

	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero fetch width", func(c *Config) { c.FetchWidth = 0 }},
		{"negative issue width", func(c *Config) { c.IssueWidth = -1 }},
		{"zero ROB", func(c *Config) { c.ROBSize = 0 }},
		{"ROB smaller than retire width", func(c *Config) { c.ROBSize = 2; c.RetireWidth = 4 }},
		{"zero reservation stations", func(c *Config) { c.RSSize = 0 }},
		{"zero LSQ", func(c *Config) { c.LSQSize = 0 }},
		{"zero fetch queue", func(c *Config) { c.FetchQSize = 0 }},
		{"window beyond link range", func(c *Config) { c.ROBSize = maxInFlight - c.FetchQSize + 1 }},
		{"no ALUs", func(c *Config) { c.IntALUs = 0 }},
		{"no memory ports", func(c *Config) { c.MemPorts = 0 }},
		{"zero frontend depth", func(c *Config) { c.FrontendDepth = 0 }},
		{"zero divide latency", func(c *Config) { c.DivLatency = 0 }},
		{"zero uop bytes", func(c *Config) { c.UopBytes = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatalf("config %+v unexpectedly accepted", cfg)
			}
		})
	}
}
