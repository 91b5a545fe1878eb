package runahead

import "testing"

func TestConfigValidate(t *testing.T) {
	for _, stock := range []Config{CoreOnly(), Mini(), Big()} {
		if err := stock.Validate(); err != nil {
			t.Errorf("stock config %q rejected: %v", stock.Name, err)
		}
	}

	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"chain cache too small", func(c *Config) { c.ChainCacheSize = 0 }},
		{"chain cache beyond Big", func(c *Config) { c.ChainCacheSize = MaxChainCacheSize + 1 }},
		{"degenerate chain length", func(c *Config) { c.MaxChainLen = 1 }},
		{"chain length beyond Big", func(c *Config) { c.MaxChainLen = MaxChainLenLimit + 1 }},
		{"no window", func(c *Config) { c.Window = 0 }},
		{"no prediction queues", func(c *Config) { c.NumQueues = 0 }},
		{"too many prediction queues", func(c *Config) { c.NumQueues = MaxNumQueues + 1 }},
		{"empty queues", func(c *Config) { c.QueueEntries = 0 }},
		{"no HBT", func(c *Config) { c.HBTEntries = 0 }},
		{"CEB cannot hold one chain", func(c *Config) { c.CEBEntries = c.MaxChainLen - 1 }},
		{"private DCE without issue width", func(c *Config) { c.SharedWithCore = false; c.IssueWidth = 0 }},
		{"no load ports", func(c *Config) { c.LoadPorts = 0 }},
		{"unknown init mode", func(c *Config) { c.InitMode = Predictive + 1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Mini()
			tc.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatalf("config %+v unexpectedly accepted", cfg)
			}
		})
	}

	// Constructors must reject invalid configs loudly.
	t.Run("NewPQSet panics on invalid config", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("no panic for zero-queue config")
			}
		}()
		bad := Mini()
		bad.NumQueues = 0
		NewPQSet(&bad)
	})
	t.Run("New panics on invalid config", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("no panic for degenerate chain length")
			}
		}()
		bad := Mini()
		bad.MaxChainLen = 0
		New(bad, nil, nil)
	})
}

// TestConfigByName: every stock configuration is found under its own Name,
// and ConfigNames lists exactly those names in Table 2 order.
func TestConfigByName(t *testing.T) {
	stock := []Config{CoreOnly(), Mini(), Big()}
	names := ConfigNames()
	if len(names) != len(stock) {
		t.Fatalf("ConfigNames() = %v, want %d names", names, len(stock))
	}
	for i, want := range stock {
		if names[i] != want.Name {
			t.Errorf("ConfigNames()[%d] = %q, want %q", i, names[i], want.Name)
		}
		got, err := ConfigByName(want.Name)
		if err != nil {
			t.Errorf("ConfigByName(%q): %v", want.Name, err)
			continue
		}
		if got != want {
			t.Errorf("ConfigByName(%q) = %+v, want %+v", want.Name, got, want)
		}
	}
	if _, err := ConfigByName("coreonly"); err == nil {
		t.Error(`ConfigByName("coreonly") accepted a name no config carries`)
	}
}
