package congest

// Observer receives engine progress events while a run executes: one
// RoundEvent per played round and one PhaseEvent per algorithm phase
// transition (Elkin variants only). It is the hook every execution
// engine in this repository shares — internal/congest, internal/parsim
// (barrier and async modes) and internal/nettrans all emit the same
// event shapes — so a trace sink or a metrics exporter written against
// it sees every engine identically.
//
// Contract:
//
//   - Callbacks must be fast and must not block: they run on the
//     engine's coordinator (OnRound) or inside a vertex program
//     (OnPhase), so a slow observer stretches the run it is observing.
//   - OnRound and OnPhase may be called concurrently from different
//     goroutines; implementations must be safe for concurrent use.
//   - Callbacks must not call back into the engine or mutate the run.
//   - A nil Observer is the fast path: engines check once per round,
//     so observation costs nothing when disabled.
//
// Observers must not perturb the run: every engine emits events
// outside its message-routing hot path, and the statistics of a run
// with an observer attached are bit-identical to the same run without
// one (asserted by the engine-matrix trace tests).
type Observer interface {
	// OnRound reports one played round. Events arrive in
	// non-decreasing Round order; the Messages field is cumulative, so
	// consecutive events give exact per-round deltas. Engines emit one
	// final event when the run ends (successfully or not) whose
	// Messages equals the run's Stats.Messages.
	OnRound(RoundEvent)
	// OnPhase reports an algorithm phase transition. Emitted by the
	// Elkin variants from the τ-root vertex; GHS and Pipeline emit no
	// phase events.
	OnPhase(PhaseEvent)
}

// RoundEvent is one played round as the engine saw it.
type RoundEvent struct {
	// Round is the round index just played (starting at 0). Idle
	// rounds skipped by calendar fast-forward produce no event, so
	// consecutive events may jump.
	Round int64
	// Active is the number of vertices resumed in this round. For the
	// Cluster engine this is a best-effort global sample (shards
	// accumulate it concurrently).
	Active int
	// Messages is the cumulative count of messages injected up to and
	// including this round — monotone non-decreasing across events and
	// equal to Stats.Messages at the final event, so per-round deltas
	// sum exactly to the run total.
	Messages int64
	// WallNanos is the wall-clock time the engine spent playing this
	// round (0 for events an engine emits only as a final summary).
	WallNanos int64
}

// PhaseEvent is one algorithm phase transition, emitted by the τ-root
// vertex of the Elkin variants.
type PhaseEvent struct {
	// Round is the round at which the phase completed.
	Round int64
	// Name identifies the stage: "bfs-build", "base-forest",
	// "register", or "boruvka".
	Name string
	// Fragments is the fragment count entering the next stage (|F|
	// after register, |F̂_j| per Boruvka phase; 0 when unknown).
	Fragments int
	// K is the base-forest parameter the run chose (Elkin variants).
	K int
}

// ShardObserver is an optional Observer extension: engines that
// partition vertices into shards (Parallel, Fiber, Cluster) emit one
// ShardSample per shard at the end of the run, making load skew —
// busy-time and message imbalance across shards — visible. Engines
// only pay for the underlying work/idle sampling when the configured
// Observer implements this interface.
type ShardObserver interface {
	OnShardSample(ShardSample)
}

// ShardSample is one shard's cumulative workload account.
type ShardSample struct {
	// Shard is the shard index; Vertices the size of its vertex range.
	Shard, Vertices int
	// Execs counts vertex resumptions the shard performed.
	Execs int64
	// Messages counts messages delivered into this shard's inboxes.
	Messages int64
	// BusyNanos is the wall-clock time the shard spent executing
	// vertices and merging deliveries (work; the rest of the run is
	// idle or barrier time).
	BusyNanos int64
}

// AsyncObserver is an optional Observer extension: the Async engine
// emits DeliveryEvents as shards drain their message queues between
// barriers and one QuiesceEvent each time the quiescence detector
// closes a delivery window (every shard idle, no messages in flight)
// and the logical clock advances. Round-clock engines never emit
// these. The Async engine still emits cumulative RoundEvents — one per
// closed window — so plain Observers keep working unchanged; this
// interface exposes the sub-window structure RoundEvents cannot carry.
//
// OnDelivery is called from shard workers concurrently; OnQuiesce from
// the coordinator. Both inherit the Observer contract: fast,
// non-blocking, no calls back into the engine.
type AsyncObserver interface {
	OnDelivery(DeliveryEvent)
	OnQuiesce(QuiesceEvent)
}

// DeliveryEvent is one shard draining a batch of queued messages into
// its vertex inboxes, concurrently with other shards still executing.
type DeliveryEvent struct {
	// Clock is the logical time the delivered messages are stamped
	// with (the window that will wake their recipients).
	Clock int64
	// Shard is the draining shard; Count the messages it moved.
	Shard, Count int
	// InFlight is the acknowledgment counter's value after the drain:
	// messages sent but not yet moved into an inbox, across all shards.
	InFlight int64
}

// QuiesceEvent is one closed delivery window: the quiescence detector
// saw every shard idle with no messages in flight, and the logical
// clock advanced.
type QuiesceEvent struct {
	// Clock is the logical time of the window just closed.
	Clock int64
	// Window is the ordinal of this quiescence (1 for the first closed
	// window). Clock can jump over idle stretches; Window never does.
	Window int64
	// Executed is the number of vertex resumptions inside this window;
	// Delivered the number of messages drained during it.
	Executed, Delivered int64
	// WallNanos is the wall-clock duration of the window.
	WallNanos int64
}

// NetObserver is an optional Observer extension: the Cluster engine
// emits one NetSample when the run ends, accounting for the TCP
// transport underneath the CONGEST statistics.
type NetObserver interface {
	OnNet(NetSample)
}

// NetSample is the socket-level account of one Cluster run.
type NetSample struct {
	// Sockets is the number of TCP connections the shard mesh held.
	Sockets int
	// BytesOut/BytesIn and FramesOut/FramesIn count wire traffic over
	// every connection (each batch is counted once, at its writing and
	// at its reading endpoint).
	BytesOut, BytesIn   int64
	FramesOut, FramesIn int64
	// Batches counts the synchronizer batches written, one per peer in
	// each agreed round where the writing shard was busy or owed a
	// heartbeat. Replays after a reconnect are not counted again.
	Batches int64
	// Dials counts connection attempts while the mesh was established;
	// DialRetries counts the attempts that failed transiently and were
	// retried.
	Dials, DialRetries int64
	// Reconnects counts mid-run connection re-establishments (a mesh
	// socket broke and the transport healed it transparently);
	// ReplayedFrames counts the message frames retransmitted on the
	// fresh connections (the receiver deduplicates them by round, so
	// replays never perturb the CONGEST statistics).
	Reconnects, ReplayedFrames int64
	// RTTs holds one round-trip measurement per dialed mesh connection
	// (TCP connect + hello/ack exchange), taken when the connection was
	// last established. Sorted by (Shard, Peer). Empty when the mesh
	// held no dialed connections.
	RTTs []PeerRTT
}

// PeerRTT is one dialed mesh connection's last measured round-trip:
// Shard dialed Peer and waited for the hello acknowledgement.
type PeerRTT struct {
	Shard, Peer int
	Nanos       int64
}
