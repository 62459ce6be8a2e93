package turbo

import (
	"testing"

	"rtopex/internal/bits"
	"rtopex/internal/stats"
)

// decodeWithRadix runs one quantized decode with the chosen trellis stepping
// and deep-copies the result, so grid comparisons survive decoder reuse.
func decodeWithRadix(t *testing.T, k int, radix Radix, maxIter int, s [][]float64, check func([]byte) bool) Result {
	t.Helper()
	dec, err := NewDecoder(k)
	if err != nil {
		t.Fatal(err)
	}
	dec.Radix = radix
	dec.MaxIterations = maxIter
	dec.PrecheckRaw = false // force the trellis, not the raw shortcut
	res := dec.Decode(s[0], s[1], s[2], check)
	res.Bits = append([]byte(nil), res.Bits...)
	return res
}

// TestRadix4DifferentialGrid is the bit-identity contract of the tentpole:
// across block lengths (spanning both QPP table regimes and the kernel's
// odd/even interior-length cases), SNRs from railed-clean through the
// waterfall to noise-dominated, seeds, and both check modes, the radix-4
// fused stepper must reproduce the radix-2 scalar reference exactly — same
// hard decisions, same iteration count, same OK verdict. Run under -race in
// CI like every test; the decoders here are independent, so the value of
// -race is catching kernel stores that stray outside their scratch.
func TestRadix4DifferentialGrid(t *testing.T) {
	for _, k := range []int{40, 104, 512, 1056, 2048, 5312, 6144} {
		for _, snr := range []float64{-5, -2, 8} {
			for seed := uint64(0); seed < 3; seed++ {
				r := stats.NewRNG(100*seed + uint64(k))
				in := randomBlock(r, k)
				streams, _ := EncodeStreams(in)
				s := noisyStreams(r, streams, snr)
				want := append([]byte(nil), in...)
				check := func(b []byte) bool { return bits.HammingDistance(b, want) == 0 }
				for _, chk := range []func([]byte) bool{nil, check} {
					r2 := decodeWithRadix(t, k, Radix2, 6, s, chk)
					r4 := decodeWithRadix(t, k, Radix4, 6, s, chk)
					if d := bits.HammingDistance(r2.Bits, r4.Bits); d != 0 {
						t.Fatalf("K=%d SNR=%v seed=%d check=%v: radix-4 differs from radix-2 in %d bits",
							k, snr, seed, chk != nil, d)
					}
					if r2.Iterations != r4.Iterations || r2.OK != r4.OK {
						t.Fatalf("K=%d SNR=%v seed=%d check=%v: (it=%d ok=%v) radix-4 vs (it=%d ok=%v) radix-2",
							k, snr, seed, chk != nil, r4.Iterations, r4.OK, r2.Iterations, r2.OK)
					}
				}
			}
		}
	}
}

// TestRadix4ScalarFallbackIdentical covers the dispatch arm hardware tests
// can't reach on AVX2 machines: with the kernels disabled, a Radix4 decoder
// must silently produce the same bits through the scalar stepper.
func TestRadix4ScalarFallbackIdentical(t *testing.T) {
	const k = 1056
	r := stats.NewRNG(81)
	in := randomBlock(r, k)
	streams, _ := EncodeStreams(in)
	s := noisyStreams(r, streams, 0)
	hw := decodeWithRadix(t, k, Radix4, 4, s, nil)
	old := radix4Enabled
	radix4Enabled = false
	sw := decodeWithRadix(t, k, Radix4, 4, s, nil)
	radix4Enabled = old
	if d := bits.HammingDistance(hw.Bits, sw.Bits); d != 0 || hw.Iterations != sw.Iterations {
		t.Fatalf("scalar fallback differs: %d bits, it %d vs %d", d, sw.Iterations, hw.Iterations)
	}
}

// TestRadix4AllocFree: the fused path must stay allocation-free like the
// scalar one — the kernels work entirely in preallocated decoder scratch.
func TestRadix4AllocFree(t *testing.T) {
	const k = 5312
	d, err := NewDecoder(k)
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(82)
	s0 := randLLRs(r, k+4, 0)
	s1 := randLLRs(r, k+4, 1)
	s2 := randLLRs(r, k+4, 2)
	d.Decode(s0, s1, s2, nil) // warm up
	allocs := testing.AllocsPerRun(5, func() {
		d.Decode(s0, s1, s2, nil)
	})
	if allocs != 0 {
		t.Fatalf("radix-4 Decode allocates %.1f objects per call, want 0", allocs)
	}
}
