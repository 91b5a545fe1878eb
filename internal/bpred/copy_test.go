package bpred

import (
	"reflect"
	"testing"
)

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
// once the pipeline drains and deliberately left out of CopyFrom.
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

// copyCase builds one predictor configuration twice over and copies between
// two of its instances.
type copyCase struct {
	name string
	mk   func() Predictor
	copy func(dst, src Predictor)
}

// copyVia adapts a typed CopyFrom to copyCase.
func copyVia[P interface{ CopyFrom(P) }](dst, src Predictor) { dst.(P).CopyFrom(src.(P)) }

// TestPredictorRoundTrip stirs every predictor, copies it into a fresh
// instance and requires the copy to equal it and to predict identically
// from there on. A second copy, stirred on its own, must leave the stirred
// predictor untouched: CopyFrom hands none of its arrays to the copy.
func TestPredictorRoundTrip(t *testing.T) {
	cases := []copyCase{
		{"bimodal", func() Predictor { return NewBimodal(12) }, copyVia[*Bimodal]},
		{"gshare", func() Predictor { return NewGshare(14, 12) }, copyVia[*Gshare]},
		{"tage64", func() Predictor { return NewTAGESCL64() }, copyVia[*TAGESCL]},
		{"tage80", func() Predictor { return NewTAGESCL80() }, copyVia[*TAGESCL]},
		{"mtage", func() Predictor { return NewMTAGE() }, copyVia[*TAGESCL]},
		{"perceptron", func() Predictor {
			return NewPerceptron(DefaultPerceptronConfig())
		}, copyVia[*Perceptron]},
		{"tournament", func() Predictor {
			return NewTournament(DefaultTournamentConfig())
		}, copyVia[*Tournament]},
		{"ldbp", func() Predictor {
			return NewLDBP(DefaultLDBPConfig(), NewTAGESCL64(), ldbpTestProgram())
		}, copyVia[*LDBP]},
		{"bullseye", func() Predictor {
			return NewBullseye(DefaultBullseyeConfig(), NewTAGESCL64())
		}, copyVia[*Bullseye]},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			p := tc.mk()
			stir(p, 0x853c49e6748fea9b, 20000)
			normalize(p)

			twin := tc.mk()
			stir(twin, 0x853c49e6748fea9b, 20000)
			other := tc.mk()
			tc.copy(other, p)
			stir(other, 0x9e3779b97f4a7c15, 2000)
			normalize(twin)
			normalize(p)
			if !reflect.DeepEqual(p, twin) {
				t.Fatal("stirring a copy changed the predictor it was copied from")
			}

			fresh := tc.mk()
			tc.copy(fresh, p)
			normalize(fresh)
			if !reflect.DeepEqual(p, fresh) {
				t.Fatal("copied predictor state differs from the original")
			}

			// The copy must behave identically from here on.
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
					t.Fatalf("post-copy prediction divergence at branch %d (pc %#x)", i, pc)
				}
				p.OnFetch(pc, d1)
				fresh.OnFetch(pc, d2)
				p.Commit(pc, taken, d1 == taken, i1)
				fresh.Commit(pc, taken, d2 == taken, i2)
			}
		})
	}
}
