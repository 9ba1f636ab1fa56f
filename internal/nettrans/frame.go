package nettrans

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"congestmst/internal/congest"
)

// Wire format: a shard writes one length-prefixed batch to every peer at
// each sync round where it has played a round since it last wrote, was
// sent frames, or owes a heartbeat; see the package doc for which rounds
// are sync rounds.
//
//	u32  payload length
//	u64  round   — the sync round the sender just reached
//	i64  next    — the sender's own calendar: the earliest round it has
//	               work on its own account (Forever = idle)
//	i64  send    — the earliest round at which the sender can next put
//	               a frame on the wire, at least next (Forever = never,
//	               until a frame reaches it)
//	u32  live    — the sender's local programs still running
//	u32  ndest   — destination shards the sender sent frames to at this
//	               sync (to any peer, not only this batch's reader)
//	u32  count   — message frames that follow the destination set
//	ndest × u32  destination shard ids, strictly ascending
//	count × frame
//
// An announcement-only heartbeat is a batch with no destinations and
// no frames. A frame is tagged with (src, port) — the sending vertex
// and its local port — and the receiver resolves the destination vertex
// and port through the shared graph.CSR, so frames stay 41 bytes at any
// graph size.
//
//	u32  src
//	u32  port
//	u8   kind
//	4×i64 payload words A..D
const (
	batchHeaderSize = 8 + 8 + 8 + 4 + 4 + 4
	destSize        = 4
	frameSize       = 4 + 4 + 1 + 4*8

	// maxBatchPayload is a decoding sanity bound: a batch larger than
	// this is a protocol error, not a read to attempt.
	maxBatchPayload = 1 << 30

	// readChunk is how far the payload buffer grows ahead of the bytes
	// actually received.
	readChunk = 1 << 16
)

// wireMsg is one frame: source vertex, source port, payload.
type wireMsg struct {
	src  int32
	port int32
	msg  congest.Message
}

// batch is one decoded wire batch (or a read failure).
type batch struct {
	round int64
	next  int64
	send  int64
	live  uint32
	dests []int32
	msgs  []wireMsg
	err   error
}

// appendBatch encodes one batch onto buf (reusing its capacity) and
// returns the extended slice, length prefix included.
func appendBatch(buf []byte, round, next, send int64, live uint32, dests []int32, msgs []wireMsg) []byte {
	payload := batchHeaderSize + len(dests)*destSize + len(msgs)*frameSize
	buf = binary.LittleEndian.AppendUint32(buf, uint32(payload))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(round))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(next))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(send))
	buf = binary.LittleEndian.AppendUint32(buf, live)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(dests)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(msgs)))
	for _, d := range dests {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(d))
	}
	for _, wm := range msgs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(wm.src))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(wm.port))
		buf = append(buf, wm.msg.Kind)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(wm.msg.A))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(wm.msg.B))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(wm.msg.C))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(wm.msg.D))
	}
	return buf
}

// batchReader decodes the batches shard from writes to one connection,
// in a mesh of nshards shards, reusing its payload buffer between reads.
type batchReader struct {
	r             *bufio.Reader
	buf           []byte
	nshards, from int
}

func newBatchReader(r io.Reader, nshards, from int) *batchReader {
	return &batchReader{r: bufio.NewReaderSize(r, 1<<16), nshards: nshards, from: from}
}

// read decodes the next batch. The payload buffer grows with the bytes
// actually received, not with the declared length, so a prefix
// promising a huge batch costs nothing until the bytes arrive.
func (br *batchReader) read() (*batch, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(br.r, lenBuf[:]); err != nil {
		return nil, err
	}
	payload := int(binary.LittleEndian.Uint32(lenBuf[:]))
	if payload < batchHeaderSize || payload > maxBatchPayload {
		return nil, fmt.Errorf("nettrans: malformed batch length %d", payload)
	}
	br.buf = br.buf[:0]
	for len(br.buf) < payload {
		start := len(br.buf)
		end := start + min(payload-start, readChunk)
		if cap(br.buf) < end {
			// Double per chunk received, never past the declared size.
			grown := make([]byte, start, min(payload, max(end, 2*cap(br.buf))))
			copy(grown, br.buf)
			br.buf = grown
		}
		br.buf = br.buf[:end]
		if _, err := io.ReadFull(br.r, br.buf[start:]); err != nil {
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return decodeBatch(br.buf, br.nshards, br.from)
}

// decodeBatch parses one payload (everything after the length prefix)
// written by shard from of an nshards-shard mesh. The returned batch
// owns its destinations and frames; buf may be reused by the caller.
func decodeBatch(buf []byte, nshards, from int) (*batch, error) {
	if len(buf) < batchHeaderSize {
		return nil, fmt.Errorf("nettrans: batch of %d bytes is shorter than its header", len(buf))
	}
	b := &batch{
		round: int64(binary.LittleEndian.Uint64(buf[0:])),
		next:  int64(binary.LittleEndian.Uint64(buf[8:])),
		send:  int64(binary.LittleEndian.Uint64(buf[16:])),
		live:  binary.LittleEndian.Uint32(buf[24:]),
	}
	ndest := int(binary.LittleEndian.Uint32(buf[28:]))
	count := int(binary.LittleEndian.Uint32(buf[32:]))
	if batchHeaderSize+ndest*destSize+count*frameSize != len(buf) {
		return nil, fmt.Errorf("nettrans: batch with %d destinations and %d frames does not match payload size %d",
			ndest, count, len(buf))
	}
	if ndest > 0 {
		b.dests = make([]int32, ndest)
		for i := range b.dests {
			d := int32(binary.LittleEndian.Uint32(buf[batchHeaderSize+i*destSize:]))
			if d < 0 || int(d) >= nshards || int(d) == from || (i > 0 && d <= b.dests[i-1]) {
				return nil, fmt.Errorf("nettrans: batch from shard %d names invalid destination %d", from, d)
			}
			b.dests[i] = d
		}
	}
	if count == 0 {
		return b, nil
	}
	frames := buf[batchHeaderSize+ndest*destSize:]
	b.msgs = make([]wireMsg, count)
	for i := range b.msgs {
		f := frames[i*frameSize:]
		b.msgs[i] = wireMsg{
			src:  int32(binary.LittleEndian.Uint32(f[0:])),
			port: int32(binary.LittleEndian.Uint32(f[4:])),
			msg: congest.Message{
				Kind: f[8],
				A:    int64(binary.LittleEndian.Uint64(f[9:])),
				B:    int64(binary.LittleEndian.Uint64(f[17:])),
				C:    int64(binary.LittleEndian.Uint64(f[25:])),
				D:    int64(binary.LittleEndian.Uint64(f[33:])),
			},
		}
	}
	return b, nil
}
