package topicmodel

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sync"
	"testing"
)

// upmBits lists the bits of every learned parameter and session count a
// training leaves behind: α, β, δ, τ and every document's ndk.
func upmBits(m *UPM) []uint64 {
	var out []uint64
	add := func(xs ...float64) {
		for _, x := range xs {
			out = append(out, math.Float64bits(x))
		}
	}
	add(m.alpha...)
	for k := 0; k < m.K(); k++ {
		add(m.betaPrior[k*m.v : (k+1)*m.v]...)
		add(m.deltaPrior[k*m.u : (k+1)*m.u]...)
		add(m.Tau(k))
	}
	for _, doc := range m.docs {
		add(doc.ndk...)
	}
	return out
}

// upmHash is the fnv-64a hash of upmBits.
func upmHash(m *UPM) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, b := range upmBits(m) {
		binary.LittleEndian.PutUint64(buf[:], b)
		h.Write(buf[:])
	}
	return h.Sum64()
}

// trainAt trains under GOMAXPROCS(procs), which sets how many
// goroutines sweep documents and fit per-topic priors.
func trainAt(t *testing.T, c *Corpus, cfg UPMConfig, procs int) *UPM {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	return TrainUPM(c, cfg)
}

var goldenCfg = UPMConfig{K: 5, Iterations: 30, Seed: 3, HyperRounds: 2, HyperIters: 10}

// The Gibbs sweep and the per-topic prior fits run on one goroutine per
// core, and the model must not depend on how many there are: every UPM
// count is per-document, each document samples from its own RNG stream,
// and each β_k / δ_k fit writes only its own topic's prior.
func TestUPMParallelMatchesSequential(t *testing.T) {
	c := synthCorpus(t)
	seq := upmBits(trainAt(t, c, goldenCfg, 1))
	for _, procs := range []int{2, 4} {
		par := upmBits(trainAt(t, c, goldenCfg, procs))
		if len(seq) != len(par) {
			t.Fatalf("GOMAXPROCS %d: %d vs %d values", procs, len(seq), len(par))
		}
		for i := range seq {
			if seq[i] != par[i] {
				t.Fatalf("value %d: GOMAXPROCS 1 %v vs %d %v", i,
					math.Float64frombits(seq[i]), procs, math.Float64frombits(par[i]))
			}
		}
	}
}

// TestUPMGolden pins the trained model to the bits the sequential
// trainer with per-call Beta densities produced, so hoisting constants
// out of the sweep and parallelising the prior fits change nothing.
func TestUPMGolden(t *testing.T) {
	const want uint64 = 0x29049048748bf3fe
	c := synthCorpus(t)
	for _, procs := range []int{1, 4} {
		if got := upmHash(trainAt(t, c, goldenCfg, procs)); got != want {
			t.Fatalf("GOMAXPROCS %d: hash %#x, want %#x", procs, got, want)
		}
	}
}

// TestFoldInGolden pins fold-in scoring, which shares the sampler's
// session weight, on a clone of a trained model and on a clone of its
// frozen (snapshot-loaded) form.
func TestFoldInGolden(t *testing.T) {
	const want uint64 = 0x8699210a4d97b9d9
	c := synthCorpus(t)
	m := trainAt(t, c, goldenCfg, 1)
	frozen, err := UPMFromState(m.State())
	if err != nil {
		t.Fatal(err)
	}
	for name, base := range map[string]*UPM{"trained": m, "frozen": frozen} {
		f := base.Clone()
		f.FoldIn("fold-new", c.Docs[0].Sessions, 20, 9)
		f.FoldIn(c.Docs[1].UserID, c.Docs[2].Sessions, 20, 11)
		if got := upmHash(f); got != want {
			t.Errorf("%s: hash %#x, want %#x", name, got, want)
		}
	}
}

// stateHash is the fnv-64a hash of every array of a UPMState, each
// prefixed by its length, in declaration order.
func stateHash(st *UPMState) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	put(uint64(st.V))
	put(uint64(st.U))
	put(uint64(st.D))
	for _, xs := range [][]float64{st.Alpha, st.BetaPrior, st.DeltaPrior, st.BetaSum, st.DeltaSum, st.Tau,
		st.Ndk, st.NdkSum, st.NkwdSum, st.NkudSum, st.NkwdVal, st.NkudVal} {
		put(uint64(len(xs)))
		for _, x := range xs {
			put(math.Float64bits(x))
		}
	}
	for _, xs := range [][]int64{st.NkwdPtr, st.NkwdIdx, st.NkudPtr, st.NkudIdx} {
		put(uint64(len(xs)))
		for _, x := range xs {
			put(uint64(x))
		}
	}
	put(uint64(len(st.DocOffsets)))
	for _, x := range st.DocOffsets {
		put(x)
	}
	put(uint64(len(st.DocBlob)))
	h.Write(st.DocBlob)
	put(uint64(len(st.DocTable)))
	for _, x := range st.DocTable {
		put(uint64(x))
	}
	return h.Sum64()
}

// TestUPMStateGolden pins every count a training and a fold-in leave
// behind — word and URL counts and their totals included, which
// TestUPMGolden and TestFoldInGolden do not read — to the bits the
// map-backed counts produced.
func TestUPMStateGolden(t *testing.T) {
	const wantTrained, wantFolded uint64 = 0x63ebbc2687e64cbf, 0xfeba4d5b67846269
	c := synthCorpus(t)
	for _, procs := range []int{1, 4} {
		m := trainAt(t, c, goldenCfg, procs)
		loaded, err := UPMFromState(m.State())
		if err != nil {
			t.Fatal(err)
		}
		for name, base := range map[string]*UPM{"trained": m, "loaded": loaded} {
			if got := stateHash(base.State()); got != wantTrained {
				t.Fatalf("GOMAXPROCS %d %s: state hash %#x, want %#x", procs, name, got, wantTrained)
			}
			f := base.Clone()
			f.FoldIn("fold-new", c.Docs[0].Sessions, 20, 9)
			f.FoldIn(c.Docs[1].UserID, c.Docs[2].Sessions, 20, 11)
			if got := stateHash(f.State()); got != wantFolded {
				t.Fatalf("GOMAXPROCS %d %s: folded state hash %#x, want %#x", procs, name, got, wantFolded)
			}
		}
	}
}

// TestFoldInCloneWhileServing folds users into a clone while other
// goroutines read the original, as LearnUser does beside live
// requests; under -race any write the two share is reported.
func TestFoldInCloneWhileServing(t *testing.T) {
	c := synthCorpus(t)
	m := trainAt(t, c, goldenCfg, 1)
	loaded, err := UPMFromState(m.State())
	if err != nil {
		t.Fatal(err)
	}
	for _, base := range []*UPM{m, loaded} {
		want := stateHash(base.State())
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					d := (i + r) % base.NumDocs()
					_ = base.Theta(d)
					_ = base.WordProb(d, i%base.K(), i%c.V())
				}
			}(r)
		}
		cl := base.Clone()
		for i, doc := range c.Docs[:4] {
			cl.FoldIn(doc.UserID, c.Docs[i+1].Sessions, 5, int64(i))
			cl.FoldIn(fmt.Sprintf("new-%d", i), doc.Sessions, 5, int64(i))
		}
		close(stop)
		wg.Wait()
		if got := stateHash(base.State()); got != want {
			t.Fatalf("fold-in on a clone changed the original: %#x, want %#x", got, want)
		}
	}
}

// Degenerate corpora: fewer documents than cores, one document (run on
// the calling goroutine) and none train without panicking.
func TestUPMSmallCorpora(t *testing.T) {
	c := synthCorpus(t)
	for _, docs := range []int{0, 1, 3} {
		small := &Corpus{Docs: c.Docs[:docs], Words: c.Words, URLs: c.URLs}
		m := trainAt(t, small, UPMConfig{K: 3, Iterations: 5, Seed: 1}, 4)
		if m.NumDocs() != docs {
			t.Fatalf("docs=%d: NumDocs %d", docs, m.NumDocs())
		}
	}
}
