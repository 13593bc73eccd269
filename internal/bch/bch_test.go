package bch

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustCode(t *testing.T, m, tErr, dataBytes int) *Code {
	t.Helper()
	c, err := New(m, tErr, dataBytes)
	if err != nil {
		t.Fatalf("New(%d, %d, %d): %v", m, tErr, dataBytes, err)
	}
	return c
}

// bit reads logical bit i of a byte slice (MSB-first within bytes).
func bit(b []byte, i int) int {
	return int(b[i/8]>>(7-uint(i%8))) & 1
}

// refEncode is the bit-serial LFSR encoder the table-driven Encode is
// held to: the remainder of data(x)·x^parityBits mod g(x), one data bit
// per step.
func refEncode(c *Code, data []byte) []byte {
	rem := make([]int, c.parityBits)
	for i := 0; i < c.dataBits; i++ {
		feedback := bit(data, i) ^ rem[0]
		copy(rem, rem[1:])
		rem[c.parityBits-1] = 0
		if feedback != 0 {
			// gen is indexed from x^0; rem[0] is the highest-order
			// register. rem[j] corresponds to x^(parityBits-1-j).
			for j := 0; j < c.parityBits; j++ {
				rem[j] ^= c.gen[c.parityBits-1-j]
			}
		}
	}
	parity := make([]byte, c.ParityBytes())
	for j, v := range rem {
		if v != 0 {
			flipBit(parity, j)
		}
	}
	return parity
}

// refSyndromes evaluates the received polynomial at alpha^1..alpha^2t
// bit by bit over the whole codeword, the way syndromes is held to.
// Codeword bit i (0 = first data bit) has weight x^(total-1-i).
func refSyndromes(c *Code, data, parity []byte) []int {
	synd := make([]int, 2*c.t)
	total := c.dataBits + c.parityBits
	addBit := func(exp int) {
		for i := range synd {
			synd[i] ^= c.f.pow(exp * (i + 1) % c.f.n)
		}
	}
	for i := 0; i < c.dataBits; i++ {
		if bit(data, i) != 0 {
			addBit(total - 1 - i)
		}
	}
	for i := 0; i < c.parityBits; i++ {
		if bit(parity, i) != 0 {
			addBit(c.parityBits - 1 - i)
		}
	}
	return synd
}

// TestMatchesBitSerialReference holds Encode and the syndromes to the
// bit-serial reference on 1,800 random (data, error pattern) cases over
// six (m, t, size) codes: the parity must be equal, and so must all 2t
// syndromes of the corrupted word, which the fast path computes from
// the ≤ parityBits-bit remainder alone. Error patterns run from none to
// 2t+2 flips over data and parity, and a quarter of the cases also flip
// a padding bit of the parity's last byte, which both must ignore.
func TestMatchesBitSerialReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, cfg := range []struct{ m, t, size int }{
		{5, 1, 2}, {6, 2, 4}, {8, 3, 16}, {10, 4, 64}, {13, 8, 512}, {14, 20, 256},
	} {
		c := mustCode(t, cfg.m, cfg.t, cfg.size)
		for i := 0; i < 300; i++ {
			data := make([]byte, cfg.size)
			rng.Read(data)
			parity := c.Encode(data)
			if want := refEncode(c, data); !bytes.Equal(parity, want) {
				t.Fatalf("m=%d t=%d size=%d case %d: parity %x, reference %x", cfg.m, cfg.t, cfg.size, i, parity, want)
			}
			for n := rng.Intn(2*cfg.t + 3); n > 0; n-- {
				if pos := rng.Intn(c.dataBits + c.parityBits); pos < c.dataBits {
					flipBit(data, pos)
				} else {
					flipBit(parity, pos-c.dataBits)
				}
			}
			if pad := 8*len(parity) - c.parityBits; pad > 0 && rng.Intn(4) == 0 {
				flipBit(parity, c.parityBits+rng.Intn(pad)) // padding: no part of the codeword
			}
			want := refSyndromes(c, data, parity)
			got, clean := c.syndromes(data, parity)
			wantClean := true
			for _, s := range want {
				wantClean = wantClean && s == 0
			}
			if clean != wantClean || !clean && fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("m=%d t=%d size=%d case %d: syndromes %v (clean %v), reference %v",
					cfg.m, cfg.t, cfg.size, i, got, clean, want)
			}
		}
	}
}

func TestFieldTables(t *testing.T) {
	for _, m := range []int{5, 8, 10, 13} {
		f, err := newField(m)
		if err != nil {
			t.Fatalf("newField(%d): %v", m, err)
		}
		// alpha^n == alpha^0 == 1.
		if f.alog[0] != 1 {
			t.Fatalf("m=%d: alog[0] = %d, want 1", m, f.alog[0])
		}
		// Every nonzero element appears exactly once in the antilog table.
		seen := make(map[int]bool)
		for i := 0; i < f.n; i++ {
			if seen[f.alog[i]] {
				t.Fatalf("m=%d: duplicate element %d", m, f.alog[i])
			}
			seen[f.alog[i]] = true
		}
	}
}

func TestFieldInverse(t *testing.T) {
	f, _ := newField(10)
	for a := 1; a <= f.n; a++ {
		if got := f.mul(a, f.inv(a)); got != 1 {
			t.Fatalf("a * a^-1 = %d for a=%d, want 1", got, a)
		}
	}
}

func TestFieldMulCommutesAndDistributes(t *testing.T) {
	f, _ := newField(8)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		a, b, c := rng.Intn(f.n+1), rng.Intn(f.n+1), rng.Intn(f.n+1)
		if f.mul(a, b) != f.mul(b, a) {
			t.Fatalf("mul not commutative: %d, %d", a, b)
		}
		if f.mul(a, b^c) != f.mul(a, b)^f.mul(a, c) {
			t.Fatalf("mul not distributive: %d, %d, %d", a, b, c)
		}
	}
}

func TestGeneratorDividesCodewords(t *testing.T) {
	// A valid codeword (data||parity) must be divisible by g(x):
	// re-encoding corrected data must reproduce parity exactly.
	c := mustCode(t, 13, 8, 512)
	rng := rand.New(rand.NewSource(4))
	data := make([]byte, 512)
	rng.Read(data)
	parity := c.Encode(data)
	if len(parity) != c.ParityBytes() {
		t.Fatalf("parity length %d, want %d", len(parity), c.ParityBytes())
	}
	// No errors: decode reports zero corrections.
	n, err := c.Decode(data, parity)
	if err != nil || n != 0 {
		t.Fatalf("clean decode: n=%d err=%v", n, err)
	}
}

func TestParitySize(t *testing.T) {
	c := mustCode(t, 13, 8, 512)
	// m*t = 104 bits = 13 bytes for a t=8 code over GF(2^13).
	if c.parityBits != 104 {
		t.Fatalf("parityBits = %d, want 104", c.parityBits)
	}
	if c.ParityBytes() != 13 {
		t.Fatalf("ParityBytes = %d, want 13", c.ParityBytes())
	}
}

func TestCorrectSingleBitEverywhere(t *testing.T) {
	c := mustCode(t, 10, 3, 64)
	orig := make([]byte, 64)
	rand.New(rand.NewSource(5)).Read(orig)
	parity := c.Encode(orig)
	for i := 0; i < 64*8; i += 37 { // sample positions across the payload
		data := append([]byte(nil), orig...)
		p := append([]byte(nil), parity...)
		flipBit(data, i)
		n, err := c.Decode(data, p)
		if err != nil {
			t.Fatalf("bit %d: %v", i, err)
		}
		if n != 1 {
			t.Fatalf("bit %d: corrected %d, want 1", i, n)
		}
		if !bytes.Equal(data, orig) {
			t.Fatalf("bit %d: data not restored", i)
		}
	}
}

func TestCorrectErrorInParity(t *testing.T) {
	c := mustCode(t, 10, 3, 64)
	data := make([]byte, 64)
	rand.New(rand.NewSource(6)).Read(data)
	orig := append([]byte(nil), data...)
	parity := c.Encode(data)
	flipBit(parity, 5)
	n, err := c.Decode(data, parity)
	if err != nil || n != 1 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	if !bytes.Equal(data, orig) {
		t.Fatal("data corrupted by parity correction")
	}
}

func TestCorrectUpToT(t *testing.T) {
	c := mustCode(t, 13, 8, 512)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		orig := make([]byte, 512)
		rng.Read(orig)
		parity := c.Encode(orig)
		data := append([]byte(nil), orig...)
		nerr := 1 + rng.Intn(8)
		flipped := make(map[int]bool)
		for len(flipped) < nerr {
			pos := rng.Intn(512 * 8)
			if !flipped[pos] {
				flipped[pos] = true
				flipBit(data, pos)
			}
		}
		n, err := c.Decode(data, parity)
		if err != nil {
			t.Fatalf("trial %d (%d errors): %v", trial, nerr, err)
		}
		if n != nerr {
			t.Fatalf("trial %d: corrected %d, want %d", trial, n, nerr)
		}
		if !bytes.Equal(data, orig) {
			t.Fatalf("trial %d: data not restored", trial)
		}
	}
}

func TestDetectBeyondT(t *testing.T) {
	c := mustCode(t, 13, 4, 512)
	rng := rand.New(rand.NewSource(8))
	detected := 0
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		orig := make([]byte, 512)
		rng.Read(orig)
		parity := c.Encode(orig)
		data := append([]byte(nil), orig...)
		// t+2 errors: beyond capability; decoder should refuse (the
		// guarantee is detection up to some margin, miscorrection is
		// possible in theory but must not happen silently here).
		flipped := make(map[int]bool)
		for len(flipped) < 6 {
			pos := rng.Intn(512 * 8)
			if !flipped[pos] {
				flipped[pos] = true
				flipBit(data, pos)
			}
		}
		if _, err := c.Decode(data, parity); err != nil {
			detected++
			// Failed decode must leave data unchanged except the
			// injected errors (no partial corrections).
			diff := 0
			for i := 0; i < 512*8; i++ {
				if bit(data, i) != bit(orig, i) {
					diff++
				}
			}
			if diff != 6 {
				t.Fatalf("trial %d: failed decode mutated data (%d diffs, want 6)", trial, diff)
			}
		}
	}
	if detected < trials*9/10 {
		t.Fatalf("detected only %d/%d beyond-t patterns", detected, trials)
	}
}

func TestPropertyRoundTrip(t *testing.T) {
	c := mustCode(t, 10, 4, 32)
	f := func(payload [32]byte, errPos []uint16) bool {
		data := append([]byte(nil), payload[:]...)
		parity := c.Encode(data)
		if len(errPos) > 4 {
			errPos = errPos[:4]
		}
		flipped := make(map[int]bool)
		for _, p := range errPos {
			pos := int(p) % (32 * 8)
			if flipped[pos] {
				continue
			}
			flipped[pos] = true
			flipBit(data, pos)
		}
		n, err := c.Decode(data, parity)
		if err != nil {
			return false
		}
		return n == len(flipped) && bytes.Equal(data, payload[:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	c := mustCode(t, 13, 8, 512)
	data := make([]byte, 512)
	rand.New(rand.NewSource(9)).Read(data)
	p1 := c.Encode(data)
	p2 := c.Encode(data)
	if !bytes.Equal(p1, p2) {
		t.Fatal("Encode not deterministic")
	}
}

func TestNewRejectsBadParams(t *testing.T) {
	if _, err := New(13, 0, 512); err == nil {
		t.Fatal("t=0 accepted")
	}
	if _, err := New(4, 2, 16); err == nil {
		t.Fatal("unsupported m accepted")
	}
	// 2^10-1 = 1023 bits total; 512 bytes of data cannot fit.
	if _, err := New(10, 2, 512); err == nil {
		t.Fatal("oversized payload accepted")
	}
}

func TestDecodeRejectsWrongSizes(t *testing.T) {
	c := mustCode(t, 10, 2, 32)
	data := make([]byte, 32)
	parity := c.Encode(data)
	if _, err := c.Decode(data[:31], parity); err == nil {
		t.Fatal("short data accepted")
	}
	if _, err := c.Decode(data, parity[:1]); err == nil {
		t.Fatal("short parity accepted")
	}
}

func BenchmarkEncode512B(b *testing.B) {
	c, err := New(13, 8, 512)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 512)
	rand.New(rand.NewSource(1)).Read(data)
	b.SetBytes(512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Encode(data)
	}
}

func BenchmarkDecodeClean512B(b *testing.B) {
	c, err := New(13, 8, 512)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 512)
	rand.New(rand.NewSource(1)).Read(data)
	parity := c.Encode(data)
	b.SetBytes(512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Decode(data, parity); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode4Errors512B(b *testing.B) {
	c, err := New(13, 8, 512)
	if err != nil {
		b.Fatal(err)
	}
	orig := make([]byte, 512)
	rand.New(rand.NewSource(1)).Read(orig)
	parity := c.Encode(orig)
	b.SetBytes(512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data := append([]byte(nil), orig...)
		p := append([]byte(nil), parity...)
		for _, pos := range []int{100, 999, 2048, 4000} {
			flipBit(data, pos)
		}
		if _, err := c.Decode(data, p); err != nil {
			b.Fatal(err)
		}
	}
}
