package telemetry

// Instrument bundles: the fixed instrument sets of the Vitis subsystems,
// so simulation and real processes expose the same counters under the same
// names. Bundles built from a nil registry have all-nil instruments —
// every observation is a nil-safe no-op — while the zero value of a bundle
// struct is likewise fully disabled.

// GossipMetrics instruments one gossip layer (peer sampling or T-Man).
type GossipMetrics struct {
	// Rounds counts gossip rounds this layer initiated.
	Rounds *Counter
	// ViewAge is the mean descriptor age of the layer's view in rounds —
	// the staleness of its membership knowledge. Unused by layers whose
	// descriptors carry no age (T-Man).
	ViewAge *Gauge
}

// NodeMetrics is the instrument set of one core.Node. One node per bundle:
// gauges are overwritten, not aggregated.
type NodeMetrics struct {
	// Dissemination (§III-C).
	Published     *Counter   // events published locally
	Deliveries    *Counter   // first receipt of a subscribed event
	Notifications *Counter   // every data-plane notification received
	Uninterested  *Counter   // notifications for unsubscribed topics (relay overhead)
	Duplicates    *Counter   // notifications cut by the seen-set
	Forwards      *Counter   // notifications sent onward
	DeliveryHops  *Histogram // overlay hops of each delivery
	// DeliveryLatency is the end-to-end publish→deliver latency in seconds,
	// measured from the publish timestamp carried in each notification.
	// Self-deliveries are excluded, mirroring DeliveryHops.
	DeliveryLatency *Histogram
	// ClockSkew counts deliveries (live or catch-up) whose publish
	// timestamp lies ahead of this node's clock; they are left out of the
	// latency histograms.
	ClockSkew  *Counter
	SeenEvents *Gauge // live seen-set entries
	// Relay paths and rendezvous routing (§III-B, Alg. 5).
	RelayLookups    *Counter // greedy lookups initiated as gateway
	RelayHops       *Counter // relay lookup hops forwarded through this node
	RelayRefused    *Counter // lookups refused here with an exhausted TTL
	RendezvousTaken *Counter // times this node assumed rendezvous duty
	GatewayChanges  *Counter // gateway proposal adoptions that changed the proposal
	GatewayTopics   *Gauge   // topics this node currently believes itself gateway for
	RelayTopics     *Gauge   // topics with live relay soft state
	// Heartbeats and membership (Alg. 6–7).
	Heartbeats       *Counter // profile messages sent
	Profiles         *Counter // profile messages received
	ProfileWants     *Counter // full profiles asked for after a digest miss (quiet heartbeats)
	NeighborsEvicted *Counter // routing-table entries dropped by missed heartbeats
	RoutingTableSize *Gauge
	ReverseNeighbors *Gauge
	// Failure recovery (§III-D; active with core.Params.Recovery).
	NeighborsSuspected *Counter // peers tombstoned after missed heartbeats
	NeighborsRecovered *Counter // evicted peers that spoke again
	Rejoins            *Counter // Rejoin calls (re-bootstrap after isolation)
	RelaysRepaired     *Counter // relay paths re-looked-up after a parent died
	ReplayRequests     *Counter // replay requests sent to recovered peers
	ReplayServed       *Counter // notifications re-sent answering replay requests
	// Pull data plane (§III-C).
	Pulls          *Counter // payload pulls started
	PullRetries    *Counter
	PullsAbandoned *Counter
	PayloadBytes   *Counter // payload bytes received through pulls
	PullBacklog    *Gauge   // entries across payload/pull bookkeeping maps
	// Store-backed catch-up (offline-subscriber backfill).
	CatchUpRequests    *Counter // catch-up pages requested from peers
	CatchUpServed      *Counter // events served from the local store
	CatchUpServedBytes *Counter // record bytes served from the local store
	CatchUpDelivered   *Counter // deliveries recovered through catch-up
	// CatchUpLatency is the publish→deliver latency of backfilled events in
	// seconds — how stale an event was when catch-up finally delivered it.
	CatchUpLatency   *Histogram
	CatchUpAbandoned *Counter // topics abandoned after exhausting peers
	CatchUpPending   *Gauge   // topics with an active catch-up state machine
	// Gossip substrates.
	Sampler GossipMetrics
	TMan    GossipMetrics
}

// DeliveryLatencyBounds are the bucket bounds (seconds) of
// vitis_core_delivery_latency_seconds: sub-millisecond loopback hops up
// through multi-second convergence tails. Exported so offline span
// reconstruction (vitis-trace spans) can quantize with the same buckets.
var DeliveryLatencyBounds = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// CatchUpLatencyBounds are the bucket bounds (seconds) of
// vitis_store_catchup_latency_seconds. Backfilled events are stale by
// construction — the subscriber was offline — so the range reaches minutes.
var CatchUpLatencyBounds = []float64{
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300,
}

// NewNodeMetrics builds the node instrument bundle. With a nil registry the
// bundle is fully disabled (all instruments nil).
func NewNodeMetrics(r *Registry) *NodeMetrics {
	if r == nil {
		return &NodeMetrics{}
	}
	return &NodeMetrics{
		Published:     r.Counter("vitis_core_published_total", "Events published by this node."),
		Deliveries:    r.Counter("vitis_core_deliveries_total", "Subscribed events delivered (first receipt)."),
		Notifications: r.Counter("vitis_core_notifications_total", "Data-plane notifications received."),
		Uninterested:  r.Counter("vitis_core_uninterested_notifications_total", "Notifications received for unsubscribed topics (relay overhead)."),
		Duplicates:    r.Counter("vitis_core_duplicate_notifications_total", "Notifications deduplicated by the seen-set."),
		Forwards:      r.Counter("vitis_core_forwards_total", "Notifications forwarded to dissemination links."),
		DeliveryHops: r.Histogram("vitis_core_delivery_hops", "Overlay hop count of delivered events.",
			1, 2, 3, 4, 6, 8, 12, 16, 24, 32),
		DeliveryLatency: r.Histogram("vitis_core_delivery_latency_seconds", "End-to-end publish-to-deliver latency of live notifications.",
			DeliveryLatencyBounds...),
		ClockSkew:          r.Counter("vitis_core_clock_skew_total", "Deliveries whose publish timestamp was ahead of this node's clock (left out of the latency histograms)."),
		SeenEvents:         r.Gauge("vitis_core_seen_events", "Events in the dedup seen-set."),
		RelayLookups:       r.Counter("vitis_core_relay_lookups_total", "Relay-path lookups initiated as gateway."),
		RelayHops:          r.Counter("vitis_core_relay_hops_total", "Relay lookup hops forwarded through this node."),
		RelayRefused:       r.Counter("vitis_core_relay_refused_total", "Relay lookups refused with an exhausted TTL."),
		RendezvousTaken:    r.Counter("vitis_core_rendezvous_taken_total", "Times this node assumed rendezvous duty."),
		GatewayChanges:     r.Counter("vitis_core_gateway_changes_total", "Gateway proposal changes adopted."),
		GatewayTopics:      r.Gauge("vitis_core_gateway_topics", "Topics this node currently proposes itself gateway for."),
		RelayTopics:        r.Gauge("vitis_core_relay_topics", "Topics with live relay soft state."),
		Heartbeats:         r.Counter("vitis_core_heartbeats_total", "Profile heartbeats sent."),
		Profiles:           r.Counter("vitis_core_profiles_total", "Profile heartbeats received."),
		ProfileWants:       r.Counter("vitis_core_profile_wants_total", "Full profiles asked for because a heartbeat digest missed the stored profile."),
		NeighborsEvicted:   r.Counter("vitis_core_neighbors_evicted_total", "Routing-table neighbors evicted after missed heartbeats."),
		RoutingTableSize:   r.Gauge("vitis_core_routing_table_size", "Current routing-table entries."),
		ReverseNeighbors:   r.Gauge("vitis_core_reverse_neighbors", "Fresh reverse (one-directional) neighbors."),
		NeighborsSuspected: r.Counter("vitis_core_neighbors_suspected_total", "Peers tombstoned as suspects after missed heartbeats."),
		NeighborsRecovered: r.Counter("vitis_core_neighbors_recovered_total", "Previously evicted peers that spoke again."),
		Rejoins:            r.Counter("vitis_core_rejoins_total", "Re-bootstraps after the node found itself isolated."),
		RelaysRepaired:     r.Counter("vitis_core_relays_repaired_total", "Relay paths re-established after their parent was evicted."),
		ReplayRequests:     r.Counter("vitis_core_replay_requests_total", "Replay requests sent to recovered or fresh peers."),
		ReplayServed:       r.Counter("vitis_core_replay_served_total", "Notifications re-sent in answer to replay requests."),
		Pulls:              r.Counter("vitis_core_pulls_total", "Payload pulls started."),
		PullRetries:        r.Counter("vitis_core_pull_retries_total", "Payload pull retransmissions."),
		PullsAbandoned:     r.Counter("vitis_core_pulls_abandoned_total", "Payload pulls abandoned after exhausting retries."),
		PayloadBytes:       r.Counter("vitis_core_payload_bytes_total", "Payload bytes received through pulls."),
		PullBacklog:        r.Gauge("vitis_core_pull_backlog", "Entries across payload and pull bookkeeping maps."),
		CatchUpRequests:    r.Counter("vitis_store_catchup_requests_total", "Catch-up pages requested from peers."),
		CatchUpServed:      r.Counter("vitis_store_catchup_served_events_total", "Events served from the local store to catching-up peers."),
		CatchUpServedBytes: r.Counter("vitis_store_catchup_served_bytes_total", "Record bytes served from the local store to catching-up peers."),
		CatchUpDelivered:   r.Counter("vitis_store_catchup_deliveries_total", "Deliveries recovered through store catch-up."),
		CatchUpLatency: r.Histogram("vitis_store_catchup_latency_seconds", "Publish-to-deliver latency of events backfilled through catch-up.",
			CatchUpLatencyBounds...),
		CatchUpAbandoned: r.Counter("vitis_store_catchup_abandoned_total", "Catch-up topics abandoned after exhausting peers."),
		CatchUpPending:   r.Gauge("vitis_store_catchup_topics_pending", "Topics with an active catch-up state machine."),
		Sampler: GossipMetrics{
			Rounds:  r.Counter("vitis_sampling_rounds_total", "Peer-sampling gossip rounds initiated."),
			ViewAge: r.Gauge("vitis_sampling_view_age", "Mean age of the peer-sampling view in rounds."),
		},
		TMan: GossipMetrics{
			Rounds: r.Counter("vitis_tman_rounds_total", "T-Man view exchange rounds initiated."),
		},
	}
}

// TransportMetrics instruments one wire transport (UDP). Unlike NodeMetrics
// these are always live — the transport's Counters() API reads them — and a
// nil registry merely leaves them unregistered.
type TransportMetrics struct {
	TxFrames     *Counter // frames queued toward a resolved peer
	TxDatagrams  *Counter // datagrams put on the wire (batches, hellos, acks)
	TxBytes      *Counter // bytes put on the wire
	TxHints      *Counter // address hints written into envelopes
	TxDropped    *Counter // frames lost to a full queue, stash, or age-out
	TxPending    *Gauge   // frames currently stashed awaiting address resolution
	TxErrors     *Counter // socket write failures
	RxDatagrams  *Counter // datagrams parsed successfully
	RxBytes      *Counter // bytes received off the wire
	RxFrames     *Counter // wire frames delivered upward
	RxErrors     *Counter // malformed datagrams or frames
	RxUnroutable *Counter // frames for ids not hosted here
	KnownPeers   *Gauge   // address-book entries
	QueueDepth   *Gauge   // frames sitting in per-peer batch buffers
	// FlushWait is how long each written datagram's first frame sat in its
	// batch buffer, in seconds. Registry-only: nil without one.
	FlushWait *Histogram
}

// NewTransportMetrics builds live transport instruments, registered under
// their canonical names when r is non-nil.
func NewTransportMetrics(r *Registry) *TransportMetrics {
	m := &TransportMetrics{
		TxFrames:     NewCounter(),
		TxDatagrams:  NewCounter(),
		TxBytes:      NewCounter(),
		TxHints:      NewCounter(),
		TxDropped:    NewCounter(),
		TxPending:    NewGauge(),
		TxErrors:     NewCounter(),
		RxDatagrams:  NewCounter(),
		RxBytes:      NewCounter(),
		RxFrames:     NewCounter(),
		RxErrors:     NewCounter(),
		RxUnroutable: NewCounter(),
		KnownPeers:   NewGauge(),
		QueueDepth:   NewGauge(),
	}
	if r != nil {
		r.CounterFunc("vitis_transport_tx_frames_total", "Wire frames queued toward a resolved peer.", counterFn(m.TxFrames))
		r.CounterFunc("vitis_transport_tx_datagrams_total", "Datagrams put on the wire (batches, hellos, acks).", counterFn(m.TxDatagrams))
		r.CounterFunc("vitis_transport_tx_bytes_total", "Bytes put on the wire.", counterFn(m.TxBytes))
		r.CounterFunc("vitis_transport_tx_hints_total", "Address hints written into envelopes.", counterFn(m.TxHints))
		r.CounterFunc("vitis_transport_tx_dropped_total", "Frames lost to a full queue, full stash, or stash age-out.", counterFn(m.TxDropped))
		r.GaugeFunc("vitis_transport_tx_pending", "Frames currently stashed awaiting address resolution.", gaugeFn(m.TxPending))
		r.CounterFunc("vitis_transport_tx_errors_total", "Socket write failures.", counterFn(m.TxErrors))
		r.CounterFunc("vitis_transport_rx_datagrams_total", "Datagrams parsed successfully.", counterFn(m.RxDatagrams))
		r.CounterFunc("vitis_transport_rx_bytes_total", "Bytes received off the wire.", counterFn(m.RxBytes))
		r.CounterFunc("vitis_transport_rx_frames_total", "Wire frames delivered upward.", counterFn(m.RxFrames))
		r.CounterFunc("vitis_transport_rx_errors_total", "Malformed datagrams or frames received.", counterFn(m.RxErrors))
		r.CounterFunc("vitis_transport_rx_unroutable_total", "Frames addressed to ids not hosted here.", counterFn(m.RxUnroutable))
		r.GaugeFunc("vitis_transport_known_peers", "Entries in the epidemic address book.", gaugeFn(m.KnownPeers))
		r.GaugeFunc("vitis_transport_send_queue_depth", "Frames waiting in per-peer batch buffers.", gaugeFn(m.QueueDepth))
		// Buckets span a short protocol turn up to ten of the transport's
		// 2 ms deadline flushes.
		m.FlushWait = r.Histogram("vitis_transport_flush_wait_seconds", "Time from a batch's first frame being queued to each of its datagrams being written.",
			0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.002, 0.005, 0.01, 0.02)
	}
	return m
}

// HostMetrics instruments one transport.Host. Always live, like
// TransportMetrics.
type HostMetrics struct {
	Sent       *Counter // messages accepted by Send
	Received   *Counter // messages dispatched to a local handler
	SendErrors *Counter // transport Send failures
	InboxDrops *Counter // inbound messages lost to a full inbox
	NoHandler  *Counter // inbound messages for ids not hosted here
	InboxDepth *Gauge   // messages waiting for the driver
}

// NewHostMetrics builds live host instruments, registered under their
// canonical names when r is non-nil.
func NewHostMetrics(r *Registry) *HostMetrics {
	m := &HostMetrics{
		Sent:       NewCounter(),
		Received:   NewCounter(),
		SendErrors: NewCounter(),
		InboxDrops: NewCounter(),
		NoHandler:  NewCounter(),
		InboxDepth: NewGauge(),
	}
	if r != nil {
		r.CounterFunc("vitis_host_sent_total", "Messages accepted by the host for sending.", counterFn(m.Sent))
		r.CounterFunc("vitis_host_received_total", "Messages dispatched to a local handler.", counterFn(m.Received))
		r.CounterFunc("vitis_host_send_errors_total", "Transport send failures.", counterFn(m.SendErrors))
		r.CounterFunc("vitis_host_inbox_drops_total", "Inbound messages lost to a full inbox.", counterFn(m.InboxDrops))
		r.CounterFunc("vitis_host_no_handler_total", "Inbound messages for ids not hosted here.", counterFn(m.NoHandler))
		r.GaugeFunc("vitis_host_inbox_depth", "Inbound messages waiting for the driver.", gaugeFn(m.InboxDepth))
	}
	return m
}

// ChaosMetrics instruments one fault-injection controller
// (internal/transport/chaos). Always live, like TransportMetrics, so tests
// and the soak harness can read them without a registry.
type ChaosMetrics struct {
	Dropped        *Counter // messages dropped by injected loss
	Duplicated     *Counter // extra copies injected
	Reordered      *Counter // messages held back to swap with a successor
	Delayed        *Counter // messages delivered late by injected jitter
	PartitionDrops *Counter // messages cut by an active partition (drop mode or inbound)
	Stashed        *Counter // messages stashed by an active partition
	StashEvicted   *Counter // stashed messages lost to a full stash
	Released       *Counter // stashed messages delivered at heal
	Partitions     *Gauge   // currently active named partitions
}

// NewChaosMetrics builds live chaos instruments, registered under their
// canonical names when r is non-nil.
func NewChaosMetrics(r *Registry) *ChaosMetrics {
	m := &ChaosMetrics{
		Dropped:        NewCounter(),
		Duplicated:     NewCounter(),
		Reordered:      NewCounter(),
		Delayed:        NewCounter(),
		PartitionDrops: NewCounter(),
		Stashed:        NewCounter(),
		StashEvicted:   NewCounter(),
		Released:       NewCounter(),
		Partitions:     NewGauge(),
	}
	if r != nil {
		r.CounterFunc("vitis_chaos_dropped_total", "Messages dropped by injected loss.", counterFn(m.Dropped))
		r.CounterFunc("vitis_chaos_duplicated_total", "Extra message copies injected.", counterFn(m.Duplicated))
		r.CounterFunc("vitis_chaos_reordered_total", "Messages held back to swap with a successor.", counterFn(m.Reordered))
		r.CounterFunc("vitis_chaos_delayed_total", "Messages delivered late by injected jitter.", counterFn(m.Delayed))
		r.CounterFunc("vitis_chaos_partition_drops_total", "Messages cut by an active partition.", counterFn(m.PartitionDrops))
		r.CounterFunc("vitis_chaos_stashed_total", "Messages stashed by an active partition.", counterFn(m.Stashed))
		r.CounterFunc("vitis_chaos_stash_evicted_total", "Stashed messages lost to a full stash.", counterFn(m.StashEvicted))
		r.CounterFunc("vitis_chaos_released_total", "Stashed messages delivered at heal.", counterFn(m.Released))
		r.GaugeFunc("vitis_chaos_active_partitions", "Currently active named partitions.", gaugeFn(m.Partitions))
	}
	return m
}

// StoreMetrics instruments one event store (internal/store). Always live,
// like TransportMetrics: the store reads them for Stats and tests read them
// without a registry; a nil registry merely leaves them unregistered.
type StoreMetrics struct {
	Appends          *Counter // records appended
	AppendedBytes    *Counter // record bytes appended (frame bytes for disk)
	AppendErrors     *Counter // appends refused by an I/O failure
	Fsyncs           *Counter // fsync calls on the active segment
	SegmentsCreated  *Counter // segments opened for writing
	SegmentsDropped  *Counter // segments removed by retention
	RetentionDropped *Counter // records dropped by retention (bytes/age caps)
	TornTruncations  *Counter // torn tails truncated during crash-recovery open
	TruncatedBytes   *Counter // bytes discarded by torn-tail truncation
	Records          *Gauge   // records currently retained
	Bytes            *Gauge   // record bytes currently retained
	Topics           *Gauge   // topics with at least one retained record
	Segments         *Gauge   // live segment files (disk store only)
}

// NewStoreMetrics builds live store instruments, registered under their
// canonical names when r is non-nil.
func NewStoreMetrics(r *Registry) *StoreMetrics {
	m := &StoreMetrics{
		Appends:          NewCounter(),
		AppendedBytes:    NewCounter(),
		AppendErrors:     NewCounter(),
		Fsyncs:           NewCounter(),
		SegmentsCreated:  NewCounter(),
		SegmentsDropped:  NewCounter(),
		RetentionDropped: NewCounter(),
		TornTruncations:  NewCounter(),
		TruncatedBytes:   NewCounter(),
		Records:          NewGauge(),
		Bytes:            NewGauge(),
		Topics:           NewGauge(),
		Segments:         NewGauge(),
	}
	if r != nil {
		r.CounterFunc("vitis_store_appends_total", "Records appended to the event store.", counterFn(m.Appends))
		r.CounterFunc("vitis_store_appended_bytes_total", "Record bytes appended to the event store.", counterFn(m.AppendedBytes))
		r.CounterFunc("vitis_store_append_errors_total", "Store appends refused by an I/O failure.", counterFn(m.AppendErrors))
		r.CounterFunc("vitis_store_fsyncs_total", "Fsync calls on the active segment.", counterFn(m.Fsyncs))
		r.CounterFunc("vitis_store_segments_created_total", "Log segments opened for writing.", counterFn(m.SegmentsCreated))
		r.CounterFunc("vitis_store_segments_dropped_total", "Log segments removed by retention.", counterFn(m.SegmentsDropped))
		r.CounterFunc("vitis_store_retention_dropped_records_total", "Records dropped by byte/age retention.", counterFn(m.RetentionDropped))
		r.CounterFunc("vitis_store_torn_truncations_total", "Torn tails truncated during crash-recovery open.", counterFn(m.TornTruncations))
		r.CounterFunc("vitis_store_truncated_bytes_total", "Bytes discarded by torn-tail truncation.", counterFn(m.TruncatedBytes))
		r.GaugeFunc("vitis_store_records", "Records currently retained by the event store.", gaugeFn(m.Records))
		r.GaugeFunc("vitis_store_bytes", "Record bytes currently retained by the event store.", gaugeFn(m.Bytes))
		r.GaugeFunc("vitis_store_topics", "Topics with at least one retained record.", gaugeFn(m.Topics))
		r.GaugeFunc("vitis_store_segments", "Live log segment files.", gaugeFn(m.Segments))
	}
	return m
}

func counterFn(c *Counter) func() float64 { return func() float64 { return float64(c.Value()) } }
func gaugeFn(g *Gauge) func() float64     { return func() float64 { return float64(g.Value()) } }
