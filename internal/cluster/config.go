// Package cluster turns the nettrans transport into a deployable
// multi-process engine: a config file maps shard IDs to worker
// addresses, cmd/mstshard hosts shards behind one TCP listener per
// process, and Dispatch partitions a graph exactly like the in-process
// Cluster engine, ships each worker its shard assignment, and merges
// the results — Rounds, Messages and ByKind stay bit-identical to the
// in-process engines because every worker plays the same rounds and
// agrees on the same sync rounds over the same mesh protocol.
package cluster

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"time"

	"congestmst/internal/ndjson"
)

// Entry places one shard: Bind is the listen address its worker
// process passes to mstshard -addr, Advertise the address the driver
// and the other workers dial to reach it. Advertise defaults to Bind;
// set it when the bind address is a wildcard (":7001") or NATed.
type Entry struct {
	Shard     int
	Bind      string
	Advertise string
}

// Config is a parsed cluster config: the shard count, the transport
// tuning shared by the driver and every worker, and one Entry per
// shard. Several shards may name the same worker (same bind and
// advertise); the driver sends that worker one job hosting all of
// them.
type Config struct {
	// Shards is the configured shard count. Graphs smaller than it use
	// the effective count (see nettrans.EffectiveShards) and only the
	// first EffectiveShards entries' workers.
	Shards int
	// DialTimeout, ReadTimeout, MaxDialAttempts and RetryBackoff tune
	// the mesh transport (zero values mean the nettrans defaults). The
	// driver forwards them to every worker inside the job, so one file
	// governs the whole run.
	DialTimeout     time.Duration
	ReadTimeout     time.Duration
	MaxDialAttempts int
	RetryBackoff    time.Duration
	// Entries lists the shard placements, indexed by shard ID.
	Entries []Entry
}

// Advertise returns the dialable address of shard i's worker.
func (c *Config) Advertise(i int) string {
	e := c.Entries[i]
	if e.Advertise != "" {
		return e.Advertise
	}
	return e.Bind
}

// configHeader is the first NDJSON line of a cluster config file.
// Cluster is the format tag and must be "v1"; Shards is required; the
// transport knobs are optional.
type configHeader struct {
	Cluster         *string `json:"cluster"`
	Shards          *int    `json:"shards"`
	DialTimeoutMS   int64   `json:"dial_timeout_ms"`
	ReadTimeoutMS   int64   `json:"read_timeout_ms"`
	MaxDialAttempts int     `json:"max_dial_attempts"`
	RetryBackoffMS  int64   `json:"retry_backoff_ms"`
}

// configEntry is one shard-placement NDJSON line.
type configEntry struct {
	Shard     *int   `json:"shard"`
	Bind      string `json:"bind"`
	Advertise string `json:"advertise"`
}

// Load reads a cluster config file: one NDJSON object per line, a
// header line followed by exactly one placement line per shard (any
// order), strict about unknown fields and malformed lines, with
// line-numbered errors.
//
//	{"cluster":"v1","shards":3,"dial_timeout_ms":5000}
//	{"shard":0,"bind":"127.0.0.1:7100"}
//	{"shard":1,"bind":"127.0.0.1:7101"}
//	{"shard":2,"bind":"0.0.0.0:7102","advertise":"127.0.0.1:7102"}
func Load(path string) (*Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	defer f.Close()
	cfg, err := Parse(f)
	if err != nil {
		return nil, fmt.Errorf("cluster: %s: %w", path, err)
	}
	return cfg, nil
}

// Parse decodes a cluster config from r; see Load for the format.
func Parse(r io.Reader) (*Config, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	var cfg *Config
	// Placements are collected as read and laid out only once every
	// line is in, so memory and work follow the input, never the
	// header's shard count.
	var placed []Entry
	seen := map[int]int{} // shard -> line it was defined on
	for sc.Scan() {
		line++
		data := bytes.TrimSpace(sc.Bytes())
		if len(data) == 0 {
			continue
		}
		if cfg == nil {
			var h configHeader
			if err := ndjson.DecodeLine(data, &h); err != nil {
				return nil, fmt.Errorf("line %d: header: %w", line, err)
			}
			if h.Cluster == nil || *h.Cluster != "v1" {
				return nil, fmt.Errorf("line %d: header needs \"cluster\":\"v1\"", line)
			}
			if h.Shards == nil || *h.Shards < 1 {
				return nil, fmt.Errorf("line %d: header needs \"shards\" >= 1", line)
			}
			if h.DialTimeoutMS < 0 || h.ReadTimeoutMS < 0 || h.RetryBackoffMS < 0 || h.MaxDialAttempts < 0 {
				return nil, fmt.Errorf("line %d: negative transport knob", line)
			}
			cfg = &Config{
				Shards:          *h.Shards,
				DialTimeout:     time.Duration(h.DialTimeoutMS) * time.Millisecond,
				ReadTimeout:     time.Duration(h.ReadTimeoutMS) * time.Millisecond,
				MaxDialAttempts: h.MaxDialAttempts,
				RetryBackoff:    time.Duration(h.RetryBackoffMS) * time.Millisecond,
			}
			continue
		}
		var e configEntry
		if err := ndjson.DecodeLine(data, &e); err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		if e.Shard == nil {
			return nil, fmt.Errorf("line %d: placement needs \"shard\"", line)
		}
		id := *e.Shard
		if id < 0 || id >= cfg.Shards {
			return nil, fmt.Errorf("line %d: shard %d out of range [0,%d)", line, id, cfg.Shards)
		}
		if prev, dup := seen[id]; dup {
			return nil, fmt.Errorf("line %d: shard %d already placed on line %d", line, id, prev)
		}
		if e.Bind == "" && e.Advertise == "" {
			return nil, fmt.Errorf("line %d: shard %d has neither bind nor advertise", line, id)
		}
		seen[id] = line
		placed = append(placed, Entry{Shard: id, Bind: e.Bind, Advertise: e.Advertise})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if cfg == nil {
		return nil, fmt.Errorf("empty config (no header line)")
	}
	// Every placed shard is distinct and in range, so if some shard is
	// unplaced, one of 0..len(placed) is.
	if len(placed) < cfg.Shards {
		for i := 0; ; i++ {
			if _, ok := seen[i]; !ok {
				return nil, fmt.Errorf("shard %d has no placement line", i)
			}
		}
	}
	cfg.Entries = make([]Entry, cfg.Shards)
	for _, e := range placed {
		cfg.Entries[e.Shard] = e
	}
	// Two shards on the same worker must agree on both names: the same
	// advertise address reaching two different binds (or vice versa)
	// means the file routes one worker's traffic to another.
	byAdvertise := map[string]string{}
	for i := range cfg.Entries {
		adv := cfg.Advertise(i)
		bind := cfg.Entries[i].Bind
		if prev, ok := byAdvertise[adv]; ok {
			if prev != bind {
				return nil, fmt.Errorf("advertise %q is bound as both %q and %q", adv, prev, bind)
			}
		} else {
			byAdvertise[adv] = bind
		}
	}
	return cfg, nil
}
