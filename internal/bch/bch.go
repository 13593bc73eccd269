package bch

import (
	"errors"
	"fmt"
)

// ErrUncorrectable is returned when the received word contains more
// errors than the code can correct. In the SDF system this is the rare
// event reported to software for replica-based recovery (§2.2 reports
// one such event across 2000+ cards in six months).
var ErrUncorrectable = errors.New("bch: uncorrectable error pattern")

// Code is a binary BCH code, possibly shortened, protecting DataBytes
// of payload with ParityBytes of redundancy and correcting up to T bit
// errors per codeword.
type Code struct {
	f          *field
	t          int   // correctable errors
	gen        []int // generator polynomial coefficients over GF(2), gen[0] is x^0
	dataBits   int
	parityBits int
	// The division register holds a remainder of degree < parityBits
	// left-aligned in words big-endian uint64s: bit j (0 the most
	// significant of word 0) is the coefficient of x^(parityBits-1-j),
	// the parity's bit order. table[v*words:(v+1)*words] is
	// v(x)·x^parityBits mod g(x) for each byte value v.
	words int
	table []uint64
}

// New constructs a BCH code over GF(2^m) correcting t errors with the
// given payload size in bytes. The code is shortened from length 2^m-1:
// dataBytes*8 + m*t' must fit in 2^m-1 (t' being the actual generator
// degree, at most m*t).
func New(m, t, dataBytes int) (*Code, error) {
	if t < 1 {
		return nil, fmt.Errorf("bch: t must be >= 1, got %d", t)
	}
	f, err := newField(m)
	if err != nil {
		return nil, err
	}
	gen, err := generator(f, t)
	if err != nil {
		return nil, err
	}
	c := &Code{
		f:          f,
		t:          t,
		gen:        gen,
		dataBits:   dataBytes * 8,
		parityBits: len(gen) - 1,
	}
	if c.dataBits+c.parityBits > f.n {
		return nil, fmt.Errorf("bch: %d data + %d parity bits exceed code length %d",
			c.dataBits, c.parityBits, f.n)
	}
	c.words = (c.parityBits + 63) / 64
	c.table = make([]uint64, 256*c.words)
	for v := 0; v < 256; v++ {
		// Bit-serial division of the one byte v, from a zero register.
		rem := make([]int, c.parityBits)
		for i := 7; i >= 0; i-- {
			feedback := v>>uint(i)&1 ^ rem[0]
			copy(rem, rem[1:])
			rem[c.parityBits-1] = 0
			if feedback != 0 {
				for j := range rem {
					rem[j] ^= c.gen[c.parityBits-1-j]
				}
			}
		}
		row := c.table[v*c.words : (v+1)*c.words]
		for j, b := range rem {
			row[j/64] |= uint64(b) << (63 - uint(j%64))
		}
	}
	return c, nil
}

// generator computes g(x) = lcm of the minimal polynomials of
// alpha^1 .. alpha^2t, as GF(2) coefficients (ints 0/1).
func generator(f *field, t int) ([]int, error) {
	g := []int{1}
	covered := make(map[int]bool)
	for i := 1; i <= 2*t; i++ {
		if covered[i] {
			continue
		}
		// The cyclotomic coset of i: i, 2i, 4i, ... mod (2^m - 1).
		var coset []int
		j := i
		for {
			coset = append(coset, j)
			covered[j] = true
			j = (j * 2) % f.n
			if j == i {
				break
			}
		}
		// Minimal polynomial: product of (x - alpha^j) over the coset.
		minPoly := []int{1}
		for _, j := range coset {
			root := f.pow(j)
			next := make([]int, len(minPoly)+1)
			for k, coef := range minPoly {
				next[k+1] ^= coef // x * coef
				next[k] ^= f.mul(coef, root)
			}
			minPoly = next
		}
		// Coefficients must collapse into GF(2).
		for k, coef := range minPoly {
			if coef != 0 && coef != 1 {
				return nil, fmt.Errorf("bch: minimal polynomial coefficient %d not in GF(2)", coef)
			}
			minPoly[k] = coef
		}
		// g *= minPoly over GF(2).
		prod := make([]int, len(g)+len(minPoly)-1)
		for a, ca := range g {
			if ca == 0 {
				continue
			}
			for b, cb := range minPoly {
				prod[a+b] ^= cb
			}
		}
		g = prod
	}
	return g, nil
}

// T returns the number of correctable bit errors per codeword.
func (c *Code) T() int { return c.t }

// DataBytes returns the payload size in bytes.
func (c *Code) DataBytes() int { return c.dataBits / 8 }

// ParityBytes returns the redundancy size in bytes (rounded up).
func (c *Code) ParityBytes() int { return (c.parityBits + 7) / 8 }

// flipBit toggles logical bit i of a byte slice (MSB-first within
// bytes).
func flipBit(b []byte, i int) {
	b[i/8] ^= 1 << (7 - uint(i%8))
}

// remainder sets reg (c.words long, zeroed) to r(x) mod g(x) for the
// received word data‖parity — data(x)·x^parityBits mod g(x), plus
// parity(x), whose degree is already below g's; nil parity gives the
// encoder's remainder. The division takes a byte per step: the
// register's top byte, plus the next data byte, indexes the remainder
// their sum leaves once shifted past the register, and the rest of the
// register moves up a byte under it. Parity bits past parityBits are
// padding and ignored.
func (c *Code) remainder(reg []uint64, data, parity []byte) {
	last := len(reg) - 1
	for _, d := range data {
		v := int(byte(reg[0]>>56) ^ d)
		for w := 0; w < last; w++ {
			reg[w] = reg[w]<<8 | reg[w+1]>>56
		}
		reg[last] <<= 8
		for w, x := range c.table[v*c.words : (v+1)*c.words] {
			reg[w] ^= x
		}
	}
	for i, b := range parity {
		if i == len(parity)-1 && c.parityBits%8 != 0 {
			b &= 0xff << (8 - uint(c.parityBits%8))
		}
		reg[i/8] ^= uint64(b) << (56 - 8*uint(i%8))
	}
}

// Encode computes the parity for data (which must be exactly DataBytes
// long) and returns it as a fresh slice of ParityBytes.
//
// The encoding is systematic: the codeword is data bits followed by
// parity bits, so the stored payload is unmodified.
func (c *Code) Encode(data []byte) []byte {
	if len(data)*8 != c.dataBits {
		panic(fmt.Sprintf("bch: Encode payload %d bytes, want %d", len(data), c.DataBytes()))
	}
	reg := make([]uint64, c.words)
	c.remainder(reg, data, nil)
	parity := make([]byte, c.ParityBytes())
	for i := range parity {
		parity[i] = byte(reg[i/8] >> (56 - 8*uint(i%8)))
	}
	return parity
}

// Decode checks data against parity and corrects up to T bit errors in
// place (in either data or parity). It returns the number of corrected
// bits, or ErrUncorrectable if the error pattern exceeds the code's
// capability.
func (c *Code) Decode(data, parity []byte) (int, error) {
	if len(data)*8 != c.dataBits {
		return 0, fmt.Errorf("bch: Decode payload %d bytes, want %d", len(data), c.DataBytes())
	}
	if len(parity) != c.ParityBytes() {
		return 0, fmt.Errorf("bch: Decode parity %d bytes, want %d", len(parity), c.ParityBytes())
	}
	synd, clean := c.syndromes(data, parity)
	if clean {
		return 0, nil
	}
	sigma, degree := c.berlekampMassey(synd)
	if degree > c.t {
		return 0, ErrUncorrectable
	}
	positions, ok := c.chienSearch(sigma, degree)
	if !ok {
		return 0, ErrUncorrectable
	}
	total := c.dataBits + c.parityBits
	for _, pos := range positions {
		// pos is the exponent of the error locator: bit index from the
		// end of the codeword is pos; convert to index from the start.
		idx := total - 1 - pos
		if idx < 0 {
			return 0, ErrUncorrectable // error located in the shortened prefix
		}
		if idx < c.dataBits {
			flipBit(data, idx)
		} else {
			flipBit(parity, idx-c.dataBits)
		}
	}
	// Verify: all syndromes must now vanish (guards against
	// miscorrection of >t errors that alias onto a valid pattern).
	if _, clean := c.syndromes(data, parity); !clean {
		// Restore the flips before reporting failure.
		for _, pos := range positions {
			idx := total - 1 - pos
			if idx < c.dataBits {
				flipBit(data, idx)
			} else {
				flipBit(parity, idx-c.dataBits)
			}
		}
		return 0, ErrUncorrectable
	}
	return len(positions), nil
}

// syndromes evaluates the received polynomial r(x) at alpha^1..alpha^2t,
// and reports whether all vanish. Each alpha^i is a root of g(x), so
// r(alpha^i) is the remainder's value there: the evaluation runs over
// the remainder's at most parityBits bits, not the codeword's, and a
// zero remainder — all syndromes vanish exactly when g(x) divides r(x)
// — needs none.
func (c *Code) syndromes(data, parity []byte) ([]int, bool) {
	reg := make([]uint64, c.words)
	c.remainder(reg, data, parity)
	clean := true
	for _, w := range reg {
		clean = clean && w == 0
	}
	if clean {
		return nil, true
	}
	synd := make([]int, 2*c.t)
	for j := 0; j < c.parityBits; j++ {
		if reg[j/64]>>(63-uint(j%64))&1 == 0 {
			continue
		}
		exp := c.parityBits - 1 - j // the bit's power of x
		for i := range synd {
			synd[i] ^= c.f.pow(exp * (i + 1) % c.f.n)
		}
	}
	return synd, false
}

// berlekampMassey finds the error-locator polynomial sigma(x) from the
// syndromes, returning its coefficients (sigma[0]=1) and degree.
func (c *Code) berlekampMassey(synd []int) ([]int, int) {
	f := c.f
	nSynd := len(synd)
	sigma := make([]int, nSynd+1)
	prev := make([]int, nSynd+1)
	sigma[0], prev[0] = 1, 1
	l := 0 // current LFSR length
	m := 1 // steps since last update
	b := 1 // last nonzero discrepancy
	for n := 0; n < nSynd; n++ {
		// Discrepancy: d = S_n + sum sigma[i]*S_{n-i}.
		d := synd[n]
		for i := 1; i <= l; i++ {
			d ^= f.mul(sigma[i], synd[n-i])
		}
		if d == 0 {
			m++
			continue
		}
		if 2*l <= n {
			tmp := make([]int, len(sigma))
			copy(tmp, sigma)
			coef := f.mul(d, f.inv(b))
			for i := 0; i+m < len(sigma); i++ {
				sigma[i+m] ^= f.mul(coef, prev[i])
			}
			l = n + 1 - l
			copy(prev, tmp)
			b = d
			m = 1
		} else {
			coef := f.mul(d, f.inv(b))
			for i := 0; i+m < len(sigma); i++ {
				sigma[i+m] ^= f.mul(coef, prev[i])
			}
			m++
		}
	}
	return sigma[:l+1], l
}

// chienSearch finds the roots of sigma(x) among alpha^-j for j in
// [0, n) and returns the corresponding error position exponents. It
// reports failure if the number of roots does not match the degree.
func (c *Code) chienSearch(sigma []int, degree int) ([]int, bool) {
	f := c.f
	var positions []int
	total := c.dataBits + c.parityBits
	for j := 0; j < total; j++ {
		// Evaluate sigma(alpha^-j).
		sum := 0
		for i, coef := range sigma {
			if coef == 0 {
				continue
			}
			if i == 0 {
				sum ^= coef
				continue
			}
			exp := (f.n - j%f.n) % f.n * i % f.n
			sum ^= f.mul(coef, f.alog[exp])
		}
		if sum == 0 {
			positions = append(positions, j)
			if len(positions) > degree {
				return nil, false
			}
		}
	}
	if len(positions) != degree {
		return nil, false
	}
	return positions, true
}
