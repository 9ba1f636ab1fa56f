package cluster

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"congestmst/internal/graph"
)

// Control protocol, spoken between the driver and each worker on the
// same listener that carries mesh traffic (the first four bytes of a
// connection select the protocol: ControlMagic here, nettrans.MeshMagic
// for shard-pair batches).
//
// Frames are u8 type + u32 little-endian length + payload:
//
//	job    (1): u32 jsonLen + JSON jobHeader + m × 16-byte edges
//	               (u32 u, u32 v, u64 w, little-endian, in g.Edges()
//	               order — preserved so every worker builds the
//	               identical CSR and the partition is bit-stable)
//	result (2): u32 jsonLen + JSON resultHeader + ports blob: for each
//	               local shard range in header order, for each vertex,
//	               u32 count + count × u32 MST ports
var ControlMagic = [4]byte{'M', 'S', 'C', '1'}

const (
	frameJob    = 1
	frameResult = 2

	// maxFramePayload bounds one control frame (1 GiB of edges is a
	// ~67M-edge job; larger graphs should not go through Dispatch's
	// single-frame shipping anyway).
	maxFramePayload = 1 << 30

	edgeWireSize = 4 + 4 + 8
)

// jobHeader is the JSON half of a job frame: everything a worker needs
// to run its shards of one graph, including the full topology (so
// mstshard needs no config file of its own) and the transport tuning.
// Fault injection is not part of it: only the worker's own
// WorkerOptions can turn that on.
type jobHeader struct {
	RunID   uint64   `json:"run_id"`
	N       int      `json:"n"`
	M       int      `json:"m"`
	NShards int      `json:"nshards"`
	Addrs   []string `json:"addrs"`
	Local   []bool   `json:"local"`

	Algorithm string `json:"algorithm"`
	Root      int    `json:"root"`
	FixedK    int    `json:"fixed_k"`
	Bandwidth int    `json:"bandwidth"`
	MaxRounds int64  `json:"max_rounds"`

	DialTimeoutMS   int64 `json:"dial_timeout_ms"`
	ReadTimeoutMS   int64 `json:"read_timeout_ms"`
	MaxDialAttempts int   `json:"max_dial_attempts"`
	RetryBackoffMS  int64 `json:"retry_backoff_ms"`
	TimeoutMS       int64 `json:"timeout_ms"`
}

// shardRange names one local shard's vertex range in a result.
type shardRange struct {
	Shard int `json:"shard"`
	Lo    int `json:"lo"`
	Hi    int `json:"hi"`
}

// wireShardSample mirrors congest.ShardSample.
type wireShardSample struct {
	Shard     int   `json:"shard"`
	Vertices  int   `json:"vertices"`
	Execs     int64 `json:"execs"`
	Messages  int64 `json:"messages"`
	BusyNanos int64 `json:"busy_nanos"`
}

// wireNet mirrors congest.NetSample.
type wireNet struct {
	Sockets        int           `json:"sockets"`
	BytesOut       int64         `json:"bytes_out"`
	BytesIn        int64         `json:"bytes_in"`
	FramesOut      int64         `json:"frames_out"`
	FramesIn       int64         `json:"frames_in"`
	Dials          int64         `json:"dials"`
	DialRetries    int64         `json:"dial_retries"`
	Reconnects     int64         `json:"reconnects"`
	ReplayedFrames int64         `json:"replayed_frames"`
	Batches        int64         `json:"batches"`
	RTTs           []wirePeerRTT `json:"rtts,omitempty"`
}

type wirePeerRTT struct {
	Shard int   `json:"shard"`
	Peer  int   `json:"peer"`
	Nanos int64 `json:"nanos"`
}

// resultHeader is the JSON half of a result frame: the worker's local
// statistics (merged by the driver exactly as the in-process engine
// merges shards) plus its transport account. Err non-empty means the
// run failed on this worker; the other fields are best-effort partials.
type resultHeader struct {
	Err      string           `json:"err,omitempty"`
	Rounds   int64            `json:"rounds"`
	Messages int64            `json:"messages"`
	ByKind   map[string]int64 `json:"by_kind,omitempty"`

	HasRoot       bool `json:"has_root"`
	K             int  `json:"k"`
	BoruvkaPhases int  `json:"boruvka_phases"`

	Shards []wireShardSample `json:"shards,omitempty"`
	Net    wireNet           `json:"net"`
	Ranges []shardRange      `json:"ranges"`
}

// writeFrame sends one control frame.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	var hdr [5]byte
	hdr[0] = typ
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame receives one control frame. The payload buffer grows with
// the bytes actually received, not with the declared length, so a
// header promising a huge frame costs nothing until the bytes arrive.
func readFrame(r io.Reader) (byte, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[1:])
	if n > maxFramePayload {
		return 0, nil, fmt.Errorf("cluster: frame of %d bytes exceeds limit", n)
	}
	payload, err := io.ReadAll(io.LimitReader(r, int64(n)))
	if err != nil {
		return 0, nil, err
	}
	if len(payload) != int(n) {
		return 0, nil, fmt.Errorf("cluster: frame truncated at %d of %d bytes: %w", len(payload), n, io.ErrUnexpectedEOF)
	}
	return hdr[0], payload, nil
}

// encodeJob builds a job frame payload: the JSON header, then the edge
// list in graph order.
func encodeJob(h jobHeader, g *graph.Graph) ([]byte, error) {
	hdr, err := json.Marshal(h)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, 4+len(hdr)+g.M()*edgeWireSize)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(hdr)))
	buf = append(buf, hdr...)
	for _, e := range g.Edges() {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.U))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.V))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.W))
	}
	return buf, nil
}

// decodeJob parses a job frame payload back into its header and graph.
func decodeJob(payload []byte) (jobHeader, *graph.Graph, error) {
	var h jobHeader
	if len(payload) < 4 {
		return h, nil, fmt.Errorf("cluster: truncated job frame")
	}
	jsonLen := binary.LittleEndian.Uint32(payload)
	rest := payload[4:]
	if uint32(len(rest)) < jsonLen {
		return h, nil, fmt.Errorf("cluster: job header overruns frame")
	}
	if err := json.Unmarshal(rest[:jsonLen], &h); err != nil {
		return h, nil, fmt.Errorf("cluster: job header: %w", err)
	}
	// The edge count comes from the bytes actually received, never from
	// a multiplication of the header's m, which a hostile header could
	// wrap around to any value.
	blob := rest[jsonLen:]
	if len(blob)%edgeWireSize != 0 {
		return h, nil, fmt.Errorf("cluster: job carries %d edge bytes, not a whole number of %d-byte edges",
			len(blob), edgeWireSize)
	}
	m := len(blob) / edgeWireSize
	if h.M != m {
		return h, nil, fmt.Errorf("cluster: job carries %d edges, header says %d", m, h.M)
	}
	// Only connected graphs are shipped, so n <= m+1; this also bounds
	// the graph's per-vertex arrays by the frame size.
	if h.N < 0 || h.N > m+1 {
		return h, nil, fmt.Errorf("cluster: job has %d vertices for %d edges, want 0..%d", h.N, m, m+1)
	}
	edges := make([]graph.Edge, m)
	for i := range edges {
		off := i * edgeWireSize
		edges[i] = graph.Edge{
			U: int(binary.LittleEndian.Uint32(blob[off:])),
			V: int(binary.LittleEndian.Uint32(blob[off+4:])),
			W: int64(binary.LittleEndian.Uint64(blob[off+8:])),
		}
	}
	g, err := graph.FromEdges(h.N, edges)
	if err != nil {
		return h, nil, fmt.Errorf("cluster: job graph: %w", err)
	}
	return h, g, nil
}

// encodeResult builds a result frame payload. ports is the worker's
// full-size slice; only the vertices inside h.Ranges are encoded.
func encodeResult(h resultHeader, ports [][]int) ([]byte, error) {
	hdr, err := json.Marshal(h)
	if err != nil {
		return nil, err
	}
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(hdr)))
	buf = append(buf, hdr...)
	for _, r := range h.Ranges {
		for v := r.Lo; v < r.Hi; v++ {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ports[v])))
			for _, p := range ports[v] {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(p))
			}
		}
	}
	return buf, nil
}

// shardSize is the number of vertices per shard when n vertices are
// split into nshards shards by ceil-division, as the mesh splits them.
func shardSize(n, nshards int) int { return (n + nshards - 1) / nshards }

// shardRanges returns the vertex ranges of the shards marked in local,
// in shard order, under that partition: shard i holds
// [i·size, min((i+1)·size, n)).
func shardRanges(n, nshards int, local []bool) []shardRange {
	size := shardSize(n, nshards)
	var rs []shardRange
	for i, l := range local {
		if l {
			lo := i * size
			rs = append(rs, shardRange{Shard: i, Lo: lo, Hi: min(lo+size, n)})
		}
	}
	return rs
}

// decodeResult parses a result frame payload, scattering the decoded
// port lists into ports (the driver's full-size slice). want is the
// worker's own shard ranges (shardRanges of its job): a successful
// result must name exactly those, so a stale or misconfigured worker
// can never write another worker's vertices. A failed result (Err set)
// carries no ports and scatters nothing.
func decodeResult(payload []byte, ports [][]int, want []shardRange) (resultHeader, error) {
	var h resultHeader
	if len(payload) < 4 {
		return h, fmt.Errorf("cluster: truncated result frame")
	}
	jsonLen := binary.LittleEndian.Uint32(payload)
	rest := payload[4:]
	if uint32(len(rest)) < jsonLen {
		return h, fmt.Errorf("cluster: result header overruns frame")
	}
	if err := json.Unmarshal(rest[:jsonLen], &h); err != nil {
		return h, fmt.Errorf("cluster: result header: %w", err)
	}
	if h.Err != "" {
		return h, nil
	}
	if !slices.Equal(h.Ranges, want) {
		return h, fmt.Errorf("cluster: result covers shard ranges %v, want the worker's own %v", h.Ranges, want)
	}
	blob := rest[jsonLen:]
	off := 0
	for _, r := range h.Ranges {
		for v := r.Lo; v < r.Hi; v++ {
			if off+4 > len(blob) {
				return h, fmt.Errorf("cluster: result ports truncated at vertex %d", v)
			}
			cnt := int(binary.LittleEndian.Uint32(blob[off:]))
			off += 4
			if cnt < 0 || off+cnt*4 > len(blob) {
				return h, fmt.Errorf("cluster: result ports truncated at vertex %d", v)
			}
			ps := make([]int, cnt)
			for i := range ps {
				ps[i] = int(binary.LittleEndian.Uint32(blob[off:]))
				off += 4
			}
			ports[v] = ps
		}
	}
	if off != len(blob) {
		return h, fmt.Errorf("cluster: %d trailing bytes after result ports", len(blob)-off)
	}
	return h, nil
}
