package cluster

import (
	"encoding/binary"
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"

	"congestmst/internal/graph"
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
