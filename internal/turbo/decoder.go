package turbo

import "fmt"

// LLR convention throughout: positive ⇒ bit 0 more likely (matching
// internal/modulation's demappers). Branch symbols map bit b to ±1 via
// (1 - 2b), so a branch's metric contribution is ½·symbol·LLR.

const negInf = -1e30

// Path selects the arithmetic the iterative decoder runs on.
type Path uint8

const (
	// PathQuantized (the zero value, so the default) is the int16
	// fixed-point max-log-MAP path: input LLRs are quantized to the
	// modulation package's Q9.6 format at the Decode boundary and the
	// constituent recursions run on saturating int16 metrics — the standard
	// SIMD-decoder layout, and considerably faster than float64 on the hot
	// path. See quant.go for the metric conventions.
	PathQuantized Path = iota
	// PathFloat64 forces the float64 reference path — the oracle the
	// quantized path is property-tested against.
	PathFloat64
)

func (p Path) String() string {
	switch p {
	case PathQuantized:
		return "quantized"
	case PathFloat64:
		return "float64"
	default:
		return fmt.Sprintf("Path(%d)", uint8(p))
	}
}

// Valid reports whether p names an implemented decode path.
func (p Path) Valid() bool { return p == PathQuantized || p == PathFloat64 }

// Decoder is an iterative max-log-MAP turbo decoder for one block size K.
// A Decoder holds scratch buffers and is not safe for concurrent use; the
// PHY chain allocates one per worker.
type Decoder struct {
	K  int
	il *Interleaver

	// MaxIterations bounds the full decoder iterations (the paper's Lm,
	// default 4; each full iteration runs both constituent decoders).
	MaxIterations int

	// Path selects the decode arithmetic: the int16 quantized fast path
	// (default) or the float64 reference oracle. Both consume the same
	// float64 soft streams; quantization happens inside Decode.
	Path Path

	// Radix selects the trellis stepping of the quantized constituent
	// passes: fused two-stage SIMD sweeps (Radix4, the default) or the
	// scalar single-stage reference (Radix2). Outputs are bit-identical;
	// see radix4.go.
	Radix Radix

	// PrecheckRaw enables the iteration-0 check of the raw systematic hard
	// decisions before any constituent pass (default on). It is always
	// correct — it accepts only on a passing check — but is a wasted O(K)
	// sweep when rate-matching punctured systematic positions that only
	// iterations can recover; receivers disable it per block via
	// RateMatcher.CoversSystematic.
	PrecheckRaw bool

	// scratch (float64 path)
	sysI   []float64 // interleaved systematic LLRs
	la     []float64 // a-priori for decoder 1
	la2    []float64 // a-priori for decoder 2
	le     []float64 // extrinsic out
	le1    []float64 // decoder 1 extrinsic, kept for the final total
	alpha  []float64 // (K+1) × numStates
	gamma0 []float64 // branch metric for u=0, per step
	gamma1 []float64
	total  []float64
	hard   []byte

	// scratch (quantized path; see quant.go for the Q-format conventions)
	q0, q1, q2 []int16 // quantized input streams, K+4 each
	qsysI      []int16 // interleaved quantized systematic LLRs
	qla        []int16 // a-priori for decoder 1
	qla2       []int16 // a-priori for decoder 2
	qle        []int16 // extrinsic out
	qle1       []int16 // decoder 1 extrinsic, kept for the final total
	qalpha     []int16 // (K+1) × numStates forward metrics
	qg0        []int16 // per-step systematic+a-priori metric (lsys+la)
	qg1        []int16 // per-step parity metric
	qhardI     []byte  // decoder-2 hard decisions, interleaved domain
	qhardTmp   []byte  // kernel scratch when decisions are not wanted
}

// NewDecoder builds a decoder for block size k.
func NewDecoder(k int) (*Decoder, error) {
	il, err := NewInterleaver(k)
	if err != nil {
		return nil, err
	}
	return &Decoder{
		K:             k,
		il:            il,
		MaxIterations: 4,
		PrecheckRaw:   true,
		sysI:          make([]float64, k),
		la:            make([]float64, k),
		la2:           make([]float64, k),
		le:            make([]float64, k),
		le1:           make([]float64, k),
		alpha:         make([]float64, (k+1)*numStates),
		gamma0:        make([]float64, k),
		gamma1:        make([]float64, k),
		total:         make([]float64, k),
		hard:          make([]byte, k),
		q0:            make([]int16, k+4),
		q1:            make([]int16, k+4),
		q2:            make([]int16, k+4),
		qsysI:         make([]int16, k),
		qla:           make([]int16, k),
		qla2:          make([]int16, k),
		qle:           make([]int16, k),
		qle1:          make([]int16, k),
		qalpha:        make([]int16, (k+1)*numStates),
		qg0:           make([]int16, k),
		qg1:           make([]int16, k),
		qhardI:        make([]byte, k),
		qhardTmp:      make([]byte, k),
	}, nil
}

// Result reports the outcome of a Decode call.
type Result struct {
	Bits       []byte // K hard-decision bits (aliases decoder scratch; copy to retain)
	Iterations int    // full iterations executed (0..MaxIterations; 0 ⇒ raw hard decisions passed check)
	OK         bool   // check function accepted the bits
}

// Decode runs iterative decoding over the three soft streams (each K+4 LLRs,
// as produced by rate dematching). check, if non-nil, is evaluated on the
// hard decisions after each constituent pass (every half-iteration) and
// decoding stops early when it returns true — the LTE receiver uses the
// code-block CRC here, and the returned iteration count (rounded up to full
// iterations) is the paper's L. Before the first constituent pass, the raw
// systematic hard decisions are checked directly (Iterations 0 on success):
// at high SNR the uncoded decisions are already CRC-clean and the trellis
// never has to run, which is where most subframes land in a healthy cell.
// Decode does not allocate: all intermediate state lives in the Decoder's
// scratch buffers.
//
// The arithmetic is selected by d.Path: the int16 quantized fast path
// (default) or the float64 reference. Both take the same float64 streams.
func (d *Decoder) Decode(s0, s1, s2 []float64, check func([]byte) bool) Result {
	k := d.K
	if len(s0) != k+4 || len(s1) != k+4 || len(s2) != k+4 {
		panic(fmt.Sprintf("turbo: stream lengths (%d,%d,%d), want %d", len(s0), len(s1), len(s2), k+4))
	}
	if check != nil && d.PrecheckRaw {
		hard := d.hard
		for i, v := range s0[:k] {
			if v < 0 {
				hard[i] = 1
			} else {
				hard[i] = 0
			}
		}
		if check(hard) {
			return Result{Bits: hard, Iterations: 0, OK: true}
		}
	}
	if d.Path == PathFloat64 {
		return d.decodeFloat(s0, s1, s2, check)
	}
	return d.decodeQuant(s0, s1, s2, check)
}

// decodeFloat is the float64 reference pipeline — the oracle the quantized
// path is tested against.
func (d *Decoder) decodeFloat(s0, s1, s2 []float64, check func([]byte) bool) Result {
	k := d.K
	sys := s0[:k]
	par1 := s1[:k]
	par2 := s2[:k]
	x1, z1, x2, z2 := demuxTails(s0, s1, s2, k)
	d.il.PermuteF(sys, d.sysI)
	for i := range d.la {
		d.la[i] = 0
	}

	res := Result{Bits: d.hard}
	for it := 1; it <= d.MaxIterations; it++ {
		res.Iterations = it
		// Decoder 1 on natural order. Its a-posteriori is already
		// sys + la + le1, so the CRC can rule mid-iteration.
		d.constituent(sys, par1, d.la, x1, z1, d.le1)
		if check != nil && check(d.hardDecide(sys)) {
			res.OK = true
			return res
		}
		// Interleave extrinsic -> a-priori of decoder 2.
		d.il.PermuteF(d.le1, d.la2)
		// Decoder 2 on interleaved order.
		d.constituent(d.sysI, par2, d.la2, x2, z2, d.le)
		// Deinterleave extrinsic -> a-priori of decoder 1.
		d.il.InverseF(d.le, d.la)

		if check != nil && check(d.hardDecide(sys)) {
			res.OK = true
			return res
		}
	}
	if check == nil {
		d.hardDecide(sys)
		res.OK = true
	}
	return res
}

// hardDecide slices the current a-posteriori total into d.hard and returns
// it. The total after decoder 1 is sys + la + le1 with la the freshest
// deinterleaved extrinsic of decoder 2 (zero before the first iteration).
func (d *Decoder) hardDecide(sys []float64) []byte {
	total, la, le1, hard := d.total, d.la, d.le1, d.hard
	for i := range total {
		total[i] = sys[i] + la[i] + le1[i]
		if total[i] < 0 {
			hard[i] = 1
		} else {
			hard[i] = 0
		}
	}
	return hard
}

// constituent runs one max-log-MAP pass: systematic LLRs lsys, parity LLRs
// lpar, a-priori la (all length K), plus 3 termination systematic/parity
// LLRs. It writes the extrinsic output into le.
//
// The three recursions below are fully unrolled over the 8-state LTE trellis
// (see trellis.go; TestConstituentWiring verifies the hardcoded wiring
// against the canonical tables). Every branch metric is one of the four sign
// combinations ±gs ± gp, computed once per step; unreachable states carry
// exactly negInf, which survives the additions unchanged (|metric| is far
// below the ulp of 1e30), so the explicit reachability guards of the
// straightforward implementation are unnecessary and the arithmetic stays
// bit-identical to it.
func (d *Decoder) constituent(lsys, lpar, la []float64, xTail, zTail [3]float64, le []float64) {
	k := d.K
	alpha := d.alpha

	// Branch metrics: gamma(u) = ½(1-2u)(lsys+la) + ½(1-2z)lpar, with the
	// parity term folded in per-state below (z depends on the state).
	gamma0, gamma1 := d.gamma0, d.gamma1
	for i := 0; i < k; i++ {
		gamma0[i] = 0.5 * (lsys[i] + la[i])
		gamma1[i] = 0.5 * lpar[i]
	}

	// Forward recursion. alpha[0] = {0, -inf...}.
	alpha[0] = 0
	for s := 1; s < numStates; s++ {
		alpha[s] = negInf
	}
	for i := 0; i < k; i++ {
		cur := (*[numStates]float64)(alpha[i*numStates:])
		next := (*[numStates]float64)(alpha[(i+1)*numStates:])
		gs, gp := gamma0[i], gamma1[i]
		ngs := -gs
		c0 := gs + gp  // u=0, z=0
		c1 := gs - gp  // u=0, z=1
		c2 := ngs + gp // u=1, z=0
		c3 := ngs - gp // u=1, z=1

		b0, b1, b2, b3 := cur[0], cur[1], cur[2], cur[3]
		b4, b5, b6, b7 := cur[4], cur[5], cur[6], cur[7]
		n0 := b0 + c0
		if v := b4 + c3; v > n0 {
			n0 = v
		}
		n1 := b0 + c3
		if v := b4 + c0; v > n1 {
			n1 = v
		}
		n2 := b1 + c1
		if v := b5 + c2; v > n2 {
			n2 = v
		}
		n3 := b1 + c2
		if v := b5 + c1; v > n3 {
			n3 = v
		}
		n4 := b2 + c2
		if v := b6 + c1; v > n4 {
			n4 = v
		}
		n5 := b2 + c1
		if v := b6 + c2; v > n5 {
			n5 = v
		}
		n6 := b3 + c3
		if v := b7 + c0; v > n6 {
			n6 = v
		}
		n7 := b3 + c0
		if v := b7 + c3; v > n7 {
			n7 = v
		}

		// Normalize in the same pass to keep metrics bounded over long
		// blocks: subtract the row maximum, leaving unreachable states at
		// exactly negInf (identical to normalize()).
		m := n0
		if n1 > m {
			m = n1
		}
		if n2 > m {
			m = n2
		}
		if n3 > m {
			m = n3
		}
		if n4 > m {
			m = n4
		}
		if n5 > m {
			m = n5
		}
		if n6 > m {
			m = n6
		}
		if n7 > m {
			m = n7
		}
		if m > negInf {
			if n0 > negInf {
				n0 -= m
			}
			if n1 > negInf {
				n1 -= m
			}
			if n2 > negInf {
				n2 -= m
			}
			if n3 > negInf {
				n3 -= m
			}
			if n4 > negInf {
				n4 -= m
			}
			if n5 > negInf {
				n5 -= m
			}
			if n6 > negInf {
				n6 -= m
			}
			if n7 > negInf {
				n7 -= m
			}
		}
		next[0], next[1], next[2], next[3] = n0, n1, n2, n3
		next[4], next[5], next[6], next[7] = n4, n5, n6, n7
	}

	// Tail: compute beta[K] by backward recursion over the three forced
	// termination steps starting from state 0 at the (virtual) step K+3.
	var tb [numStates]float64
	for s := range tb {
		tb[s] = negInf
	}
	tb[0] = 0
	for t := 2; t >= 0; t-- {
		var nb [numStates]float64
		for s := 0; s < numStates; s++ {
			u := feedback[s]
			ns := nextState[s][u]
			if tb[ns] <= negInf {
				nb[s] = negInf
				continue
			}
			gs := 0.5 * xTail[t]
			gp := 0.5 * zTail[t]
			nb[s] = tb[ns] + branchMetric(int(u), parityBit[s][u], gs, gp)
		}
		tb = nb
	}

	// Backward recursion fused with LLR extraction. The beta row for step
	// i+1 lives in b0..b7 while le[i] is computed (m_u = max over states of
	// alpha[i][s] + gamma(s,u) + beta[i+1][nextState[s][u]]), then the row
	// for step i replaces it in the same registers — beta never touches
	// memory, and the separate LLR sweep over the trellis disappears.
	b0, b1, b2, b3 := tb[0], tb[1], tb[2], tb[3]
	b4, b5, b6, b7 := tb[4], tb[5], tb[6], tb[7]
	for i := k - 1; i >= 0; i-- {
		curA := (*[numStates]float64)(alpha[i*numStates:])
		gs, gp := gamma0[i], gamma1[i]
		ngs := -gs
		c0 := gs + gp
		c1 := gs - gp
		c2 := ngs + gp
		c3 := ngs - gp

		a0, a1, a2, a3 := curA[0], curA[1], curA[2], curA[3]
		a4, a5, a6, a7 := curA[4], curA[5], curA[6], curA[7]

		m0 := a0 + c0 + b0
		if v := a1 + c1 + b2; v > m0 {
			m0 = v
		}
		if v := a2 + c1 + b5; v > m0 {
			m0 = v
		}
		if v := a3 + c0 + b7; v > m0 {
			m0 = v
		}
		if v := a4 + c0 + b1; v > m0 {
			m0 = v
		}
		if v := a5 + c1 + b3; v > m0 {
			m0 = v
		}
		if v := a6 + c1 + b4; v > m0 {
			m0 = v
		}
		if v := a7 + c0 + b6; v > m0 {
			m0 = v
		}

		m1 := a0 + c3 + b1
		if v := a1 + c2 + b3; v > m1 {
			m1 = v
		}
		if v := a2 + c2 + b4; v > m1 {
			m1 = v
		}
		if v := a3 + c3 + b6; v > m1 {
			m1 = v
		}
		if v := a4 + c3 + b0; v > m1 {
			m1 = v
		}
		if v := a5 + c2 + b2; v > m1 {
			m1 = v
		}
		if v := a6 + c2 + b5; v > m1 {
			m1 = v
		}
		if v := a7 + c3 + b7; v > m1 {
			m1 = v
		}

		le[i] = (m0 - m1) - lsys[i] - la[i]

		n0 := b0 + c0
		if v := b1 + c3; v > n0 {
			n0 = v
		}
		n1 := b2 + c1
		if v := b3 + c2; v > n1 {
			n1 = v
		}
		n2 := b5 + c1
		if v := b4 + c2; v > n2 {
			n2 = v
		}
		n3 := b7 + c0
		if v := b6 + c3; v > n3 {
			n3 = v
		}
		n4 := b1 + c0
		if v := b0 + c3; v > n4 {
			n4 = v
		}
		n5 := b3 + c1
		if v := b2 + c2; v > n5 {
			n5 = v
		}
		n6 := b4 + c1
		if v := b5 + c2; v > n6 {
			n6 = v
		}
		n7 := b6 + c0
		if v := b7 + c3; v > n7 {
			n7 = v
		}

		m := n0
		if n1 > m {
			m = n1
		}
		if n2 > m {
			m = n2
		}
		if n3 > m {
			m = n3
		}
		if n4 > m {
			m = n4
		}
		if n5 > m {
			m = n5
		}
		if n6 > m {
			m = n6
		}
		if n7 > m {
			m = n7
		}
		if m > negInf {
			if n0 > negInf {
				n0 -= m
			}
			if n1 > negInf {
				n1 -= m
			}
			if n2 > negInf {
				n2 -= m
			}
			if n3 > negInf {
				n3 -= m
			}
			if n4 > negInf {
				n4 -= m
			}
			if n5 > negInf {
				n5 -= m
			}
			if n6 > negInf {
				n6 -= m
			}
			if n7 > negInf {
				n7 -= m
			}
		}
		b0, b1, b2, b3 = n0, n1, n2, n3
		b4, b5, b6, b7 = n4, n5, n6, n7
	}
}

// branchMetric evaluates ½·u_sym·(lsys+la) + ½·z_sym·lpar where gs and gp
// already carry the ½·LLR factors and u_sym, z_sym = ±1 for bits 0/1.
func branchMetric(u int, z byte, gs, gp float64) float64 {
	m := gs
	if u == 1 {
		m = -gs
	}
	if z == 1 {
		m -= gp
	} else {
		m += gp
	}
	return m
}

func normalize(v []float64) {
	m := v[0]
	for _, x := range v[1:] {
		if x > m {
			m = x
		}
	}
	if m <= negInf {
		return
	}
	for i := range v {
		if v[i] > negInf {
			v[i] -= m
		}
	}
}
