package flashchan

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// FuzzDecodeOOB feeds arbitrary bytes to decodeOOB, the parser of the
// spare-area record the mount scan reads off every programmed page. It
// must never panic; it must accept exactly the oobSize-byte inputs, and
// re-encode each of those to the same bytes. The input also seeds a
// block write's writeOOB, whose rendered spare must decode to the
// fields it encoded. The seed corpus in testdata/fuzz/FuzzDecodeOOB
// holds an empty, a short, a long and an all-zero record and rendered
// first and last pages; plain `go test` replays it.
func FuzzDecodeOOB(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		oob, ok := decodeOOB(b)
		if ok != (len(b) == oobSize) {
			t.Fatalf("decodeOOB accepted=%v a %d-byte record, want only %d bytes", ok, len(b), oobSize)
		}
		if !ok {
			return
		}
		if enc := encodeOOB(oob); !bytes.Equal(enc, b) {
			t.Fatalf("encodeOOB(decodeOOB(b)) = %x, want %x", enc, b)
		}
		checkSpare(t, oob)
	})
}

// checkSpare builds the writeOOB of a block write from the fields of a
// decoded record, renders one page's spare and requires it to decode to
// what the record stands for: the write's identity, the page within its
// plane block, the flags, the page CRC and, on a plane's last page, the
// CRC32 over that plane's page CRCs, little-endian, in page order.
func checkSpare(t *testing.T, oob pageOOB) {
	pages, planes := 1+oob.page%64, 1+int(oob.flags>>4)%4
	w := &writeOOB{
		blockMeta: blockMeta{id: oob.id, tagged: oob.flags&oobTagged != 0, seq: oob.seq},
		lbn:       int32(oob.lbn & 0x7fffffff),
		pages:     int32(pages),
	}
	if oob.flags&oobHasCRC != 0 {
		w.crcs = make([]uint32, planes*pages)
		for k := range w.crcs {
			w.crcs[k] = oob.crc*uint32(k+1) ^ oob.bcrc
		}
	}
	i := int(oob.bcrc % uint32(planes*pages))
	got, ok := decodeOOB(w.Spare(i))
	if !ok {
		t.Fatalf("Spare(%d) rendered %d bytes, want %d", i, len(w.Spare(i)), oobSize)
	}
	pg := i % pages
	want := pageOOB{id: w.id, seq: w.seq, lbn: int(w.lbn), page: pg, crc: w.crc(i)}
	if w.tagged {
		want.flags |= oobTagged
	}
	if w.crcs != nil {
		want.flags |= oobHasCRC
	}
	if pg == pages-1 {
		want.flags |= oobLast
		var le [4]byte
		for j := i - pg; j <= i; j++ {
			binary.LittleEndian.PutUint32(le[:], w.crc(j))
			want.bcrc = crc32.Update(want.bcrc, crc32.IEEETable, le[:])
		}
	}
	if got != want {
		t.Fatalf("Spare(%d) of %+v decodes to %+v, want %+v", i, w.blockMeta, got, want)
	}
}
