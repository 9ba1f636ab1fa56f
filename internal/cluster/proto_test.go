package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"

	"congestmst/internal/graph"
	"congestmst/internal/nettrans"
)

// rawJob builds a job payload from a literal JSON header and edge
// bytes, as a hostile or broken driver could send it.
func rawJob(hdr string, edges []byte) []byte {
	payload := binary.LittleEndian.AppendUint32(nil, uint32(len(hdr)))
	return append(append(payload, hdr...), edges...)
}

// TestDecodeJobRejectsHostileHeaders: headers whose counts disagree
// with the bytes sent fail with an error instead of panicking the
// worker. The first two once panicked in make (an m whose byte count
// wraps to 0) and in graph.FromEdges (a negative n).
func TestDecodeJobRejectsHostileHeaders(t *testing.T) {
	edge := make([]byte, edgeWireSize)
	binary.LittleEndian.PutUint32(edge[4:], 1) // edge (0, 1), weight 0
	overrun := rawJob(`{"n":1,"m":0}`, nil)
	binary.LittleEndian.PutUint32(overrun, uint32(len(overrun)))
	cases := []struct {
		name    string
		payload []byte
		want    string
	}{
		{"wrapping-m", rawJob(`{"n":1,"m":1152921504606846976}`, nil), "header says"},
		{"negative-n", rawJob(`{"n":-1,"m":0}`, nil), "vertices"},
		{"n-beyond-m+1", rawJob(`{"n":3,"m":1}`, edge), "vertices"},
		{"m-mismatch", rawJob(`{"n":2,"m":2}`, edge), "header says"},
		{"partial-edge", rawJob(`{"n":2,"m":1}`, edge[:edgeWireSize-1]), "whole number"},
		{"edge-out-of-range", rawJob(`{"n":1,"m":1}`, edge), "out of range"},
		{"truncated", []byte{1, 0}, "truncated"},
		{"header-overrun", overrun, "overruns"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, g, err := decodeJob(tc.payload)
			if err == nil {
				t.Fatalf("accepted a %d-vertex, %d-edge graph", g.N(), g.M())
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want it to mention %q", err, tc.want)
			}
		})
	}
}

// TestDecodeJobRoundTrip: a job the driver encodes decodes to the same
// header and edge list, including the edgeless single-vertex graph.
func TestDecodeJobRoundTrip(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.Ring(8, graph.GenOptions{Seed: 9}),
		graph.Path(1, graph.GenOptions{}),
	} {
		h := jobHeader{RunID: 3, N: g.N(), M: g.M(), NShards: 2, Addrs: []string{"a:1", "b:2"},
			Local: []bool{true, false}, Algorithm: "ghs"}
		payload, err := encodeJob(h, g)
		if err != nil {
			t.Fatal(err)
		}
		got, gg, err := decodeJob(payload)
		if err != nil {
			t.Fatalf("decodeJob: %v", err)
		}
		if !reflect.DeepEqual(got, h) || gg.N() != g.N() || !slices.Equal(gg.Edges(), g.Edges()) {
			t.Errorf("round trip of a %d-vertex job changed it", g.N())
		}
	}
}

// FuzzDecodeJob feeds arbitrary bytes to the job decoder a worker runs
// on every job frame. It must never panic, and any job it accepts must
// hold h.M edges on h.N vertices and survive an encodeJob round trip.
// The seed corpus (testdata/fuzz/FuzzDecodeJob) holds a valid job, a
// truncated frame, an overflowing m and a negative n.
func FuzzDecodeJob(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		h, g, err := decodeJob(data)
		if err != nil {
			return
		}
		if g.N() != h.N || g.M() != h.M {
			t.Fatalf("accepted header n=%d m=%d with a %d-vertex, %d-edge graph", h.N, h.M, g.N(), g.M())
		}
		wire, err := encodeJob(h, g)
		if err != nil {
			t.Fatalf("re-encoding an accepted job: %v", err)
		}
		h2, g2, err := decodeJob(wire)
		if err != nil {
			t.Fatalf("re-encoded job rejected: %v", err)
		}
		if !reflect.DeepEqual(h2, h) || g2.N() != g.N() || !slices.Equal(g2.Edges(), g.Edges()) {
			hj, _ := json.Marshal(h)
			t.Fatalf("round trip changed the job with header %s", hj)
		}
	})
}

// rawResult builds a result payload from a literal JSON header and the
// u32 words of its ports blob, as a stale or hostile worker could send
// it.
func rawResult(hdr string, words ...uint32) []byte {
	payload := binary.LittleEndian.AppendUint32(nil, uint32(len(hdr)))
	payload = append(payload, hdr...)
	for _, w := range words {
		payload = binary.LittleEndian.AppendUint32(payload, w)
	}
	return payload
}

// TestDecodeResultRejectsForeignRanges: a worker assigned shard 0 of
// an 8-vertex, 2-shard run owns vertices [0,4). A result naming any
// other set of ranges is rejected before it writes a single port, so a
// stale worker cannot overwrite (or race on) the other worker's slots.
func TestDecodeResultRejectsForeignRanges(t *testing.T) {
	want := shardRanges(8, 2, []bool{true, false})
	if !slices.Equal(want, []shardRange{{Shard: 0, Lo: 0, Hi: 4}}) {
		t.Fatalf("shardRanges = %v", want)
	}
	ports4 := []uint32{1, 0, 1, 0, 1, 0, 1, 0} // four vertices, one port each
	cases := []struct {
		name    string
		payload []byte
	}{
		{"foreign", rawResult(`{"ranges":[{"shard":1,"lo":4,"hi":8}]}`, ports4...)},
		{"own-plus-foreign", rawResult(`{"ranges":[{"shard":0,"lo":0,"hi":4},{"shard":1,"lo":4,"hi":8}]}`,
			append(ports4, ports4...)...)},
		{"shifted", rawResult(`{"ranges":[{"shard":0,"lo":2,"hi":6}]}`, ports4...)},
		{"missing", rawResult(`{"ranges":[]}`)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ports := make([][]int, 8)
			_, err := decodeResult(tc.payload, ports, want)
			if err == nil || !strings.Contains(err.Error(), "want the worker's own") {
				t.Fatalf("err = %v, want a range mismatch", err)
			}
			for v, ps := range ports {
				if ps != nil {
					t.Errorf("rejected result wrote vertex %d", v)
				}
			}
		})
	}

	ports := make([][]int, 8)
	h, err := decodeResult(rawResult(`{"ranges":[{"shard":0,"lo":0,"hi":4}]}`, ports4...), ports, want)
	if err != nil || h.Err != "" {
		t.Fatalf("own range rejected: %v", err)
	}
	for v, ps := range ports {
		if owned := v < 4; owned != (ps != nil) {
			t.Errorf("vertex %d: ports %v after decoding the owner's result", v, ps)
		}
	}

	// A failed run reports no ports, whatever ranges it lists.
	failed := rawResult(`{"err":"boom","ranges":[{"shard":1,"lo":4,"hi":8}]}`, ports4...)
	if h, err := decodeResult(failed, make([][]int, 8), want); err != nil || h.Err != "boom" {
		t.Errorf("failed result: header err %q, decode err %v", h.Err, err)
	}
}

// FuzzDecodeResult feeds arbitrary bytes to the result decoder the
// driver runs on every worker's reply, for a worker owning the shards
// in mask of an n-vertex run over the effective count of shards. It
// must never panic and never write outside the worker's own ranges; a
// successful result it accepts fills exactly those ranges and
// re-encodes to the same frame. The seed corpus
// (testdata/fuzz/FuzzDecodeResult) holds a valid result, a foreign
// range, a truncated ports blob and a failed run.
func FuzzDecodeResult(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte, n uint16, shards, mask uint8) {
		nn := int(n%512) + 1
		eff := nettrans.EffectiveShards(nn, int(shards%8)+1)
		local := make([]bool, eff)
		for i := range local {
			local[i] = mask>>i&1 == 1
		}
		want := shardRanges(nn, eff, local)
		owned := make([]bool, nn)
		for _, r := range want {
			for v := r.Lo; v < r.Hi; v++ {
				owned[v] = true
			}
		}
		ports := make([][]int, nn)
		h, err := decodeResult(payload, ports, want)
		for v, ps := range ports {
			if ps != nil && !owned[v] {
				t.Fatalf("decode wrote vertex %d outside the ranges %v", v, want)
			}
		}
		if err != nil || h.Err != "" {
			return
		}
		for v, ps := range ports {
			if owned[v] && ps == nil {
				t.Fatalf("accepted result left owned vertex %d without ports", v)
			}
		}
		wire, err := encodeResult(h, ports)
		if err != nil {
			t.Fatalf("re-encoding an accepted result: %v", err)
		}
		ports2 := make([][]int, nn)
		h2, err := decodeResult(wire, ports2, want)
		if err != nil {
			t.Fatalf("re-encoded result rejected: %v", err)
		}
		wire2, err := encodeResult(h2, ports2)
		if err != nil || !bytes.Equal(wire2, wire) {
			t.Fatalf("round trip changed the result frame (err %v)", err)
		}
	})
}
