package bpred

import (
	"reflect"
	"testing"

	"repro/internal/brstate"
	"repro/internal/simtest"
)

// statefulPredictor is the save/load surface the round-trip tests drive.
type statefulPredictor interface {
	Predictor
	brstate.Saver
	brstate.Loader
}

// stir drives a predictor through a deterministic pseudo-random branch
// stream, including checkpoint/restore churn (misprediction recovery), so
// every table, history register and fold accumulates state.
func stir(p Predictor, seed uint64, n int) {
	rng := seed
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	for i := 0; i < n; i++ {
		pc := 0x400000 + (next()%97)*4
		// Correlated-but-noisy outcomes exercise taken and not-taken paths.
		taken := (pc>>2+next()%5)%3 != 0
		dir, info := p.Predict(pc)
		snap := p.Checkpoint()
		p.OnFetch(pc, dir)
		if dir != taken {
			// Mispredicted: rewind the speculative history and re-establish
			// the resolved direction, as the core does on a flush.
			p.Restore(snap)
			p.OnFetch(pc, taken)
		}
		p.Release(snap)
		p.Commit(pc, taken, dir == taken, info)
	}
}

// normalize empties checkpoint scratch pools, which are semantically empty
// once the pipeline drains and deliberately excluded from snapshots.
func normalize(p Predictor) {
	switch s := p.(type) {
	case *TAGESCL:
		s.t.snapPool = nil
		s.infoPool = nil
	case *Perceptron:
		s.snapPool = nil
		s.infoPool = nil
	case *Tournament:
		s.snapPool = nil
		s.infoPool = nil
	case *LDBP:
		s.infoPool = nil
		normalize(s.base)
	case *Bullseye:
		s.snapPool = nil
		s.infoPool = nil
		normalize(s.base)
	}
}

func TestPredictorRoundTrip(t *testing.T) {
	cases := []struct {
		name    string
		version uint32
		mk      func() statefulPredictor
	}{
		{"bimodal", BimodalStateVersion, func() statefulPredictor { return NewBimodal(12) }},
		{"gshare", GshareStateVersion, func() statefulPredictor { return NewGshare(14, 12) }},
		{"tage64", TAGESCLStateVersion, func() statefulPredictor { return NewTAGESCL64() }},
		{"tage80", TAGESCLStateVersion, func() statefulPredictor { return NewTAGESCL80() }},
		{"mtage", TAGESCLStateVersion, func() statefulPredictor { return NewMTAGE() }},
		{"perceptron", PerceptronStateVersion, func() statefulPredictor {
			return NewPerceptron(DefaultPerceptronConfig())
		}},
		{"tournament", TournamentStateVersion, func() statefulPredictor {
			return NewTournament(DefaultTournamentConfig())
		}},
		{"ldbp", LDBPStateVersion, func() statefulPredictor {
			return NewLDBP(DefaultLDBPConfig(), NewTAGESCL64(), ldbpTestProgram())
		}},
		{"bullseye", BullseyeStateVersion, func() statefulPredictor {
			return NewBullseye(DefaultBullseyeConfig(), NewTAGESCL64())
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			p := tc.mk()
			stir(p, 0x853c49e6748fea9b, 20000)
			normalize(p)

			fresh := tc.mk()
			simtest.RoundTrip(t, tc.name, tc.version, p.SaveState, fresh.LoadState, fresh.SaveState)
			normalize(fresh)
			if !reflect.DeepEqual(p, fresh) {
				t.Fatal("restored predictor state differs from the saved one")
			}

			// The restored predictor must behave identically from here on.
			rng := uint64(0xda3e39cb94b95bdb)
			for i := 0; i < 2000; i++ {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				pc := 0x400000 + (rng%97)*4
				taken := rng%2 == 0
				d1, i1 := p.Predict(pc)
				d2, i2 := fresh.Predict(pc)
				if d1 != d2 {
					t.Fatalf("post-restore prediction divergence at branch %d (pc %#x)", i, pc)
				}
				p.OnFetch(pc, d1)
				fresh.OnFetch(pc, d2)
				p.Commit(pc, taken, d1 == taken, i1)
				fresh.Commit(pc, taken, d2 == taken, i2)
			}
		})
	}
}

func TestPredictorLoadRejectsMismatchedGeometry(t *testing.T) {
	small := NewBimodal(10)
	w := brstate.NewWriter()
	w.Section("p", BimodalStateVersion, small.SaveState)
	r, err := brstate.NewReader(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	big := NewBimodal(12)
	var loadErr error
	r.Section("p", BimodalStateVersion, func(r *brstate.Reader) { loadErr = big.LoadState(r) })
	if loadErr == nil && r.Err() == nil {
		t.Fatal("expected table-size mismatch error")
	}
}
