// Package runahead implements the paper's contribution: the Branch Runahead
// system. It detects hard-to-predict branches (Hard Branch Table), extracts
// their dependence chains from the retired micro-op stream (Chain Extraction
// Buffer, with move and store-load-pair elimination and local rename),
// stores them in a chain cache, executes them continuously on the Dependence
// Chain Engine (DCE), and feeds the computed branch outcomes to instruction
// fetch through per-branch prediction queues that override the baseline
// TAGE-SC-L predictions.
package runahead

import "fmt"

// InitMode selects the chain initiation policy (paper §4.1).
type InitMode uint8

const (
	// NonSpeculative: a chain must finish execution before its outcome
	// initiates successor chains. Minimal chain-level parallelism.
	NonSpeculative InitMode = iota
	// IndependentEarly: wildcard-tagged successors initiate as soon as
	// their predecessor finishes initiation (the triggering branch's
	// direction cannot affect whether they run).
	IndependentEarly
	// Predictive: non-wildcard successors are additionally initiated early
	// using a per-branch 3-bit counter prediction of the triggering
	// branch's outcome; wrong speculative initiations are flushed.
	Predictive
)

// String implements fmt.Stringer.
func (m InitMode) String() string {
	switch m {
	case NonSpeculative:
		return "non-speculative"
	case IndependentEarly:
		return "independent-early"
	case Predictive:
		return "predictive"
	default:
		return "init-mode?"
	}
}

// Config parameterizes the whole Branch Runahead system. The stock
// configurations follow Table 2: Core-Only (9KB), Mini (17KB) and Big
// (unlimited).
type Config struct {
	Name string

	// ChainCacheSize is the number of dependence chains held (LRU).
	ChainCacheSize int
	// MaxChainLen caps the micro-ops per chain (16 in Mini).
	MaxChainLen int

	// Window is the maximum number of concurrently executing dynamic chain
	// instances (local register file / reservation station pairs).
	Window int
	// SharedWithCore marks the Core-Only variant: the DCE borrows the
	// core's reservation stations, registers and functional units, so its
	// window and issue bandwidth are the core's per-cycle slack.
	SharedWithCore bool
	// IssueWidth is the DCE's own per-cycle micro-op issue bandwidth
	// (Figure 7 shows two ALUs). Ignored when SharedWithCore.
	IssueWidth int
	// LoadPorts caps DCE loads issued per cycle; the D-cache's own port
	// reservation then arbitrates with the core, which has priority.
	LoadPorts int

	// NumQueues and QueueEntries size the per-branch prediction queues.
	NumQueues    int
	QueueEntries int

	// HBTEntries sizes the Hard Branch Table; CEBEntries the chain
	// extraction buffer.
	HBTEntries int
	CEBEntries int

	// InitMode selects the chain initiation policy.
	InitMode InitMode

	// Feature toggles (all on in the paper's system; exposed for the
	// ablation benchmarks called out in DESIGN.md).
	UseAffectorGuard bool
	MoveElim         bool
	Throttle         bool
	InOrderChainExec bool
}

// Hard sizing limits, anchored to the largest point any configuration the
// paper evaluates reaches — Table 2's Big plus the Figure 13 per-parameter
// sweeps, which probe one axis beyond Big at a time. The Mini budget is
// chain length <= 16 uops, a 32-entry chain cache, 16 prediction queues
// and a 512-entry CEB; these caps bound every swept value of each axis.
const (
	MaxChainCacheSize = 1024
	MaxChainLenLimit  = 128
	MaxNumQueues      = 64
	MaxQueueEntries   = 1024
	MaxHBTEntries     = 1024
	MaxCEBEntries     = 2048
)

// Validate checks the configuration against the paper's structural
// constraints, so a typo'd Table 2 parameter fails at construction instead
// of silently skewing every downstream figure.
func (c Config) Validate() error {
	check := func(name string, v, lo, hi int) error {
		if v < lo || v > hi {
			return fmt.Errorf("runahead config %q: %s = %d outside [%d, %d]", c.Name, name, v, lo, hi)
		}
		return nil
	}
	// A chain is at least one computation uop plus the triggering branch.
	if err := check("MaxChainLen", c.MaxChainLen, 2, MaxChainLenLimit); err != nil {
		return err
	}
	if err := check("ChainCacheSize", c.ChainCacheSize, 1, MaxChainCacheSize); err != nil {
		return err
	}
	if err := check("Window", c.Window, 1, 4096); err != nil {
		return err
	}
	if err := check("NumQueues", c.NumQueues, 1, MaxNumQueues); err != nil {
		return err
	}
	if err := check("QueueEntries", c.QueueEntries, 1, MaxQueueEntries); err != nil {
		return err
	}
	if err := check("HBTEntries", c.HBTEntries, 1, MaxHBTEntries); err != nil {
		return err
	}
	if err := check("CEBEntries", c.CEBEntries, 1, MaxCEBEntries); err != nil {
		return err
	}
	// The extraction walk happens inside the CEB, so a whole chain must fit.
	if c.CEBEntries < c.MaxChainLen {
		return fmt.Errorf("runahead config %q: CEBEntries = %d cannot hold a %d-uop chain",
			c.Name, c.CEBEntries, c.MaxChainLen)
	}
	if !c.SharedWithCore && c.IssueWidth < 1 {
		return fmt.Errorf("runahead config %q: a private DCE needs IssueWidth >= 1", c.Name)
	}
	if c.LoadPorts < 1 {
		return fmt.Errorf("runahead config %q: LoadPorts = %d must be >= 1", c.Name, c.LoadPorts)
	}
	if c.InitMode > Predictive {
		return fmt.Errorf("runahead config %q: unknown init mode %d", c.Name, c.InitMode)
	}
	return nil
}

// CoreOnly returns the 9KB Core-Only configuration from Table 2: no private
// window; chains borrow core reservation stations and functional units.
func CoreOnly() Config {
	c := Mini()
	c.Name = "core-only"
	c.Window = 6 // additionally capped each cycle by free core RS entries
	c.SharedWithCore = true
	c.QueueEntries = 48
	return c
}

// Mini returns the 17KB configuration from Table 2.
func Mini() Config {
	return Config{
		Name:             "mini",
		ChainCacheSize:   32,
		MaxChainLen:      16,
		Window:           64,
		IssueWidth:       2,
		LoadPorts:        2,
		NumQueues:        16,
		QueueEntries:     256,
		HBTEntries:       64,
		CEBEntries:       512,
		InitMode:         Predictive,
		UseAffectorGuard: true,
		MoveElim:         true,
		Throttle:         true,
	}
}

// Big returns the unlimited-storage configuration from Table 2, used to
// demonstrate Branch Runahead's maximum potential.
func Big() Config {
	return Config{
		Name:             "big",
		ChainCacheSize:   1024,
		MaxChainLen:      64,
		Window:           1024,
		IssueWidth:       8,
		LoadPorts:        4,
		NumQueues:        64,
		QueueEntries:     1024,
		HBTEntries:       1024,
		CEBEntries:       2048,
		InitMode:         Predictive,
		UseAffectorGuard: true,
		MoveElim:         true,
		Throttle:         true,
	}
}

// stockConfigs are the paper's Table 2 configurations, in its order.
var stockConfigs = [...]func() Config{CoreOnly, Mini, Big}

// ConfigByName returns the Table 2 configuration whose Name is name.
func ConfigByName(name string) (Config, error) {
	for _, mk := range stockConfigs {
		if c := mk(); c.Name == name {
			return c, nil
		}
	}
	return Config{}, fmt.Errorf("runahead: unknown BR config %q (want one of %v)", name, ConfigNames())
}

// ConfigNames lists the Table 2 configuration names, in the paper's order.
func ConfigNames() []string {
	names := make([]string, len(stockConfigs))
	for i, mk := range stockConfigs {
		names[i] = mk().Name
	}
	return names
}

// StorageBits estimates the configuration's storage cost, mirroring the
// Table 2 accounting: 4 bytes per chain-cache micro-op, 8-entry local
// register files, 32-entry reservation stations, prediction queue bits, HBT
// and CEB entries.
func (c Config) StorageBits() int {
	bits := 0
	bits += c.ChainCacheSize * c.MaxChainLen * 32 // chain cache, 4B/uop
	if !c.SharedWithCore {
		bits += c.Window * 8 * 64  // local register files (8 regs x 8B)
		bits += c.Window * 32 * 16 // reservation station entries
	}
	bits += c.NumQueues * c.QueueEntries * 8 // prediction queue slots + pointers
	bits += c.HBTEntries * 128               // HBT entry: pc + counters + AGL
	bits += c.CEBEntries * 32                // CEB: 4B per uop record
	bits += 3 * 8192                         // live-in/live-out tables, extraction state
	return bits
}
