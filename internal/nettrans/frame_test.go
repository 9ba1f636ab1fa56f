package nettrans

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"runtime"
	"slices"
	"testing"

	"congestmst/internal/congest"
)

// TestBatchRoundTrip encodes batches across boundary payloads and
// decodes them back through the streaming reader, pinning the wire
// format end to end.
func TestBatchRoundTrip(t *testing.T) {
	cases := []struct {
		round, next, send int64
		live              uint32
		dests             []int32
		msgs              []wireMsg
	}{
		{0, 1, 1, 3, nil, nil},
		{1, congest.Forever, congest.Forever, 0, nil, nil},
		{7, 12, 40, 2, []int32{0}, []wireMsg{{src: 0, port: 0, msg: congest.Message{Kind: 1, A: 42}}}},
		{9, 10, congest.Forever, 1, []int32{0, 2, 3}, nil},
		{1 << 40, 1<<40 + 1, math.MaxInt64, 1 << 20, []int32{0}, []wireMsg{
			{src: math.MaxInt32, port: 0, msg: congest.Message{Kind: 255, A: math.MaxInt64, B: math.MinInt64, C: -1, D: 1}},
			{src: 3, port: 9, msg: congest.Message{Kind: 7, A: -42, C: math.MaxInt64 - 1, D: math.MinInt64 + 1}},
			{src: 5, port: 2, msg: congest.Message{}},
		}},
	}
	var wire bytes.Buffer
	for _, c := range cases {
		wire.Write(appendBatch(nil, c.round, c.next, c.send, c.live, c.dests, c.msgs))
	}
	br := newBatchReader(&wire, 4, 1)
	for i, c := range cases {
		b, err := br.read()
		if err != nil {
			t.Fatalf("case %d: read: %v", i, err)
		}
		if b.round != c.round || b.next != c.next || b.send != c.send || b.live != c.live {
			t.Errorf("case %d: header (%d,%d,%d,%d), want (%d,%d,%d,%d)",
				i, b.round, b.next, b.send, b.live, c.round, c.next, c.send, c.live)
		}
		if !slices.Equal(b.dests, c.dests) {
			t.Errorf("case %d: destinations %v, want %v", i, b.dests, c.dests)
		}
		if len(b.msgs) != len(c.msgs) {
			t.Fatalf("case %d: %d msgs, want %d", i, len(b.msgs), len(c.msgs))
		}
		for j := range c.msgs {
			if b.msgs[j] != c.msgs[j] {
				t.Errorf("case %d msg %d: got %+v, want %+v", i, j, b.msgs[j], c.msgs[j])
			}
		}
	}
}

// TestBatchSizes pins the wire layout: a 4-byte length prefix, a
// 36-byte batch header, 4 bytes per destination shard, and 41-byte
// frames tagged (src, port).
func TestBatchSizes(t *testing.T) {
	if batchHeaderSize != 36 {
		t.Errorf("batchHeaderSize = %d, want 36 (round, next, send, live, ndest, count)", batchHeaderSize)
	}
	if frameSize != 4+4+1+4*8 {
		t.Errorf("frameSize = %d, want %d", frameSize, 4+4+1+4*8)
	}
	msgs := []wireMsg{{src: 1, port: 2, msg: congest.Message{Kind: 3}}}
	buf := appendBatch(nil, 0, 1, 2, 1, []int32{0}, msgs)
	if want := 4 + 36 + destSize + frameSize; len(buf) != want {
		t.Errorf("encoded batch is %d bytes, want %d", len(buf), want)
	}
	if got := binary.LittleEndian.Uint32(buf); int(got) != batchHeaderSize+destSize+frameSize {
		t.Errorf("length prefix %d, want %d", got, batchHeaderSize+destSize+frameSize)
	}
}

// TestBatchReaderRejectsMalformed feeds corrupted length prefixes,
// counts and destination sets; the reader must error rather than
// mis-frame the stream or wake the wrong shard.
func TestBatchReaderRejectsMalformed(t *testing.T) {
	// Payload length not a whole number of frames.
	var wire bytes.Buffer
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], batchHeaderSize+1)
	wire.Write(lenBuf[:])
	wire.Write(make([]byte, batchHeaderSize+1))
	if _, err := newBatchReader(&wire, 4, 1).read(); err == nil {
		t.Error("ragged payload length accepted")
	}

	// Count field disagreeing with the payload size.
	good := appendBatch(nil, 0, 1, 1, 1, []int32{0}, []wireMsg{{src: 1}})
	bad := bytes.Clone(good)
	binary.LittleEndian.PutUint32(bad[4+32:], 2) // claim two frames, carry one
	if _, err := newBatchReader(bytes.NewReader(bad), 4, 1).read(); err == nil {
		t.Error("count/payload mismatch accepted")
	}

	// Absurd length prefix.
	binary.LittleEndian.PutUint32(lenBuf[:], maxBatchPayload+1)
	if _, err := newBatchReader(bytes.NewReader(lenBuf[:]), 4, 1).read(); err == nil {
		t.Error("oversized batch length accepted")
	}

	// Destination sets naming a shard out of range, the sender itself,
	// or the same shard twice.
	for _, dests := range [][]int32{{4}, {-1}, {1}, {0, 0}, {2, 0}} {
		buf := appendBatch(nil, 0, 1, 1, 1, dests, nil)
		if _, err := newBatchReader(bytes.NewReader(buf), 4, 1).read(); err == nil {
			t.Errorf("destination set %v from shard 1 of 4 accepted", dests)
		}
	}
}

// TestBatchReaderBoundsAllocation: a length prefix declaring the
// largest allowed batch, followed by EOF, must fail without allocating
// for the declared size — a peer cannot pin memory it never sends.
func TestBatchReaderBoundsAllocation(t *testing.T) {
	var prefix [4]byte
	binary.LittleEndian.PutUint32(prefix[:], maxBatchPayload)
	br := newBatchReader(bytes.NewReader(prefix[:]), 4, 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := br.read()
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated batch read without error")
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("err = %v, want a truncated-batch error", err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Errorf("reading a 4-byte batch allocated %d bytes", d)
	}
}

// FuzzDecodeBatch feeds arbitrary bytes to the batch reader of shard
// from's link in an nshards-shard mesh. It must never panic, and any
// batch it accepts must re-encode to exactly the bytes it consumed. The
// seed corpus (testdata/fuzz/FuzzDecodeBatch) holds an empty batch,
// frames, a destination set, a heartbeat and a truncated batch.
func FuzzDecodeBatch(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, nshards, from uint8) {
		b, err := newBatchReader(bytes.NewReader(data), int(nshards), int(from)).read()
		if err != nil {
			return
		}
		wire := appendBatch(nil, b.round, b.next, b.send, b.live, b.dests, b.msgs)
		if !bytes.HasPrefix(data, wire) {
			t.Fatalf("accepted batch re-encodes to %x, read from %x", wire, data[:min(len(data), len(wire))])
		}
		for _, d := range b.dests {
			if d < 0 || int(d) >= int(nshards) || int(d) == int(from) {
				t.Fatalf("accepted destination %d from shard %d of %d", d, from, nshards)
			}
		}
	})
}
