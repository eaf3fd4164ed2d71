// ×pipes-like packet-switched NoC over a pluggable topology.
//
// Behavioural cycle-true model of a wormhole-switched fabric:
//
//   * network interfaces (NIs) packetize OCP transactions into flit streams
//     (Head carrying {cmd, addr, burst, source}, one Payload flit per data
//     beat, Tail) and reassemble them at the far end;
//   * routers are input-buffered with per-output round-robin wormhole
//     allocation and one flit per link per cycle; the routing decision and
//     the link adjacency come from an ic::Topology (docs/topology.md) — the
//     default 2D mesh routes XY exactly as before the abstraction, and a
//     torus or table-routed graph drops in without touching router code;
//   * requests and responses travel on two separate buffer planes (virtual
//     networks), which removes request/response protocol deadlock; on
//     topologies that ask for virtual channels (the torus's dateline VCs)
//     each protocol plane is replicated per VC, which removes the routing
//     deadlock its wrap links would otherwise introduce;
//   * posted writes complete at the master NI once all beats are buffered —
//     network delivery is decoupled, unlike the shared-bus model.
//
// Each node hosts at most one master NI and one slave NI (the two local
// router ports after the topology's neighbour ports). The platform
// co-locates a core with its private memory and places shared slaves on
// their own nodes.
//
// The router phase is activity-driven: only routers holding flits (or a
// wormhole binding) are visited each cycle, and inside a router only its
// occupied input slots and its requested or bound output channels (kept as
// bitsets; a Head's output channel is routed once, when it is written into
// the FIFO), so per-cycle cost scales with traffic instead of mesh size or
// port count. docs/xpipes.md documents the mesh microarchitecture and the
// activity contract; bit-identity against the dense full-scan reference
// (router_gating = false) is pinned by tests/xpipes_gating_test.cpp.
//
// Compared to the AHB model this fabric has higher zero-load latency but
// concurrent transfers — the architectural contrast used by the paper's
// cross-interconnect validation (identical .tgp programs, different cycle
// counts).
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "ic/address_map.hpp"
#include "ic/fault.hpp"
#include "ic/interconnect.hpp"
#include "ic/topo/topo.hpp"
#include "stats/latency.hpp"
#include "stats/reliability.hpp"

namespace tgsim::ic {

/// Largest accepted XpipesConfig::fifo_depth. Every router input FIFO is a
/// fixed ring of fifo_depth flits allocated up front, so the bound keeps a
/// mistyped depth from turning into a multi-gigabyte arena.
inline constexpr u32 kMaxFifoDepth = 256;

struct XpipesConfig {
    u32 width = 3;
    u32 height = 3;
    /// Flits per router input FIFO, in [2, kMaxFifoDepth].
    u32 fifo_depth = 4;
    /// Activity-driven router phase (the default): eval only routers on the
    /// active worklist, and within each only occupied input slots and
    /// requested or bound output channels. false = dense full scan over
    /// every router × input slot × output channel, re-routing every Head
    /// at a FIFO front on every visit — kept as the bit-identical reference
    /// (the oracle) for tests and benches.
    bool router_gating = true;
    /// Collect per-packet latency samples into XpipesStats::packet_latency
    /// (docs/traffic.md). Off by default: the stamps are always carried, but
    /// sample storage is only paid for by the pattern/latency experiments.
    /// Purely observational — wire behaviour is identical either way.
    bool collect_latency = false;
    /// Deterministic fault injection + the end-to-end recovery protocol
    /// (docs/faults.md). All-zero rates (the default) keep the mesh
    /// bit-identical to the pre-fault model: no serials, no checksums, no
    /// acks, posted writes stay posted.
    FaultConfig fault{};
    /// Fabric topology (docs/topology.md). Mesh (the default) preserves the
    /// original XY-routed behaviour bit-for-bit; Torus adds wrap links with
    /// minimal dimension-ordered routing; Table routes the graph below.
    /// New members sit after `fault` so existing aggregate initializers
    /// keep their meaning.
    TopologyKind topology = TopologyKind::Mesh;
    /// Adjacency for TopologyKind::Table (width/height are ignored there:
    /// the node count comes from the graph). Shared and immutable, so sweep
    /// workers reuse one parsed graph across the whole candidate grid.
    std::shared_ptr<const GraphSpec> graph{};
};

struct XpipesStats {
    u64 busy_cycles = 0;
    u64 flits_routed = 0;   ///< link traversals
    u64 packets_sent = 0;
    u64 decode_errors = 0;
    /// Routers processed by the router phase (per router per cycle). The
    /// full-scan bound is node_count() × router_phase_cycles; the gap between
    /// the two is what activity gating saves.
    u64 router_visits = 0;
    u64 router_phase_cycles = 0; ///< cycles in which the router phase ran
    std::vector<u64> master_wait_cycles; ///< command asserted, NI busy
    /// Offered vs accepted accounting (docs/traffic.md): request packets
    /// whose Tail reached the destination slave NI, and response packets
    /// whose Tail reached the requesting master NI. The offered side is the
    /// generator's configured injection rate plus master_wait_cycles (cycles
    /// a master held a command the NI could not yet take).
    u64 req_packets_delivered = 0;
    u64 resp_packets_delivered = 0;
    /// Per-packet latency in cycles, head creation at the source NI (the
    /// inject stamp carried in the head flit) to Tail delivery at the
    /// destination NI; both planes sampled. Populated only when
    /// XpipesConfig::collect_latency.
    stats::LatencyStats packet_latency;
    /// Response packets delivered whose Tail carried a slave Resp::Err.
    /// These are counted here and *excluded* from packet_latency (an Err
    /// turnaround is not a service time), so fault/error runs do not skew
    /// p50/p99 (docs/traffic.md).
    u64 resp_err_packets = 0;
    /// Fault-injection and recovery accounting; only advances when
    /// XpipesConfig::fault is enabled (docs/faults.md).
    stats::ReliabilityStats reliability;

    // --- open-loop source instrumentation (docs/traffic.md); only
    // populated after configure_open_source() ---
    /// In-network latency: tx injection (pending-queue exit) to Tail
    /// delivery. Recorded back-to-back with packet_latency for the same
    /// packet, so sample i satisfies
    /// source_q_latency[i] + net_latency[i] == packet_latency[i] exactly.
    stats::LatencyStats net_latency;
    /// Source-queueing latency: packet creation at the NI to tx injection.
    stats::LatencyStats source_q_latency;
    /// High-water mark of any single master NI's pending-packet queue
    /// (complete packets). Reaching the configured pending_limit means the
    /// open-loop source itself was backpressured — a saturation signal.
    u64 pending_peak = 0;
    /// Cycle the last Tail was delivered (either NI side). The open-loop
    /// drain runs past the generators' halt cycles, so this — not the
    /// masters' halt — is the honest end-of-run time base.
    Cycle last_delivery = 0;
};

class XpipesNetwork final : public Interconnect {
public:
    explicit XpipesNetwork(XpipesConfig cfg);

    /// `node` is required (0 <= node < width*height); one master NI per node.
    std::size_t connect_master(ocp::ChannelRef ch, int node) override;
    /// One slave NI per node.
    std::size_t connect_slave(ocp::ChannelRef ch, u32 base, u32 size,
                              int node, bool read_side_effects = false) override;

    void eval() override;
    void update() override { ++now_; }
    [[nodiscard]] Cycle quiet_for() const override {
        // Fault mode: a dropped packet leaves no flits in flight, so the
        // retry timers in the master NIs are the only recovery signal —
        // the network must stay clocked while any transaction is pending.
        if (fault_on_ && pending_txns_ > 0) return 0;
        // Open-loop mode: packets parked in NI pending queues are outside
        // flits_active_ (router FIFOs + tx), but the NIs must keep draining
        // them even after every generator has halted.
        if (open_backlog_ > 0) return 0;
        return (!any_activity_ && flits_active_ == 0) ? sim::kQuietForever : 0;
    }
    /// Keeps the local cycle counter (latency stamps) aligned with kernel
    /// time across gated jumps. Packets only exist while the network is
    /// clocked every cycle (quiet_for() is 0 whenever flits are in flight),
    /// so stamp arithmetic is exact in all scheduling modes.
    void advance(Cycle cycles) override { now_ += cycles; }
    // Activity subscription: Interconnect::watch_inputs (all master gens) —
    // a drained network (no flits, idle NIs) only reacts to a master
    // asserting a command at one of the master NIs.

    [[nodiscard]] const XpipesStats& stats() const noexcept { return stats_; }
    /// Switches the master NIs into open-loop source mode (docs/traffic.md):
    /// accepted commands are packetized into a bounded per-NI pending queue
    /// and injected as the fabric drains, read responses are absorbed at the
    /// NI, and packet latency is decomposed into source-queueing vs
    /// in-network series. Called once by the platform loader (the
    /// tg::SourceConfig surface) before the first eval(). `max_outstanding`
    /// bounds in-flight reads per NI (0 = unbounded); `pending_limit` >= 1
    /// bounds the pending queue. Mutually exclusive with fault injection.
    void configure_open_source(u32 max_outstanding, u32 pending_limit);
    /// Pre-sizes the latency sample stores (no-op unless collect_latency).
    /// Loaders that know the run's transaction budget call this once so the
    /// per-packet record() path never reallocates mid-simulation.
    void reserve_latency(u64 n_samples) {
        if (!cfg_.collect_latency) return;
        stats_.packet_latency.reserve(n_samples);
        if (open_) {
            stats_.net_latency.reserve(n_samples);
            stats_.source_q_latency.reserve(n_samples);
        }
    }
    [[nodiscard]] u64 busy_cycles() const override { return stats_.busy_cycles; }
    [[nodiscard]] u64 contention_cycles() const override;
    [[nodiscard]] u32 node_count() const noexcept { return topo_->node_count(); }
    [[nodiscard]] const Topology& topology() const noexcept { return *topo_; }

private:
    // Router ports: [0, n_ports_ - 2) are the topology's neighbour links
    // (N=0, S=1, E=2, W=3 on mesh/torus), then the two local NI ports
    // lm_port_ (master side) and ls_port_ (slave side). For the mesh this
    // is exactly the original fixed numbering (LM=4, LS=5, 6 ports), so
    // allocation and round-robin order are bit-identical.
    /// Protocol planes (virtual networks): requests and responses. The
    /// buffer-plane count is n_planes_ = kNumPlanes * vc_count_ — each
    /// protocol plane is replicated per topology virtual channel
    /// (Topology::vcs(); 1 on mesh/table, 2 dateline VCs on the torus).
    /// Plane index = protocol * vc_count_ + vc, so with one VC the plane
    /// indices — and all behaviour — are bit-identical to pre-VC code.
    static constexpr int kNumPlanes = 2; ///< 0 = requests, 1 = responses

    struct FlitHeader {
        ocp::Cmd cmd = ocp::Cmd::Idle;
        u32 addr = 0;
        u16 burst = 1;
        u16 src_node = 0;  ///< requester's node (response routing)
        u16 dest_node = 0; ///< routing target
        bool is_resp = false;
        /// Per-master-NI transaction sequence number (fault mode only):
        /// stable across retries, echoed by the response/ack so master NIs
        /// can filter stale responses and slave NIs can dedupe replays.
        u16 seq = 0;
        /// Cycle the packet entered the network proper (left the NI pending
        /// queue for the tx queue). Also copied onto the packet's Tail flit
        /// so the sample is taken when delivery completes.
        Cycle inject = 0;
        /// Cycle the packet was created at the source NI (the OCP command
        /// was accepted). In closed-loop mode creation and injection
        /// coincide, so created == inject everywhere; in open-loop mode the
        /// difference is the source-queueing latency (docs/traffic.md).
        Cycle created = 0;
    };

    struct Flit {
        enum class Kind : u8 { Head, Payload, Tail };
        Kind kind = Kind::Head;
        /// Response payload beat failed at the slave (Resp::Err). Carried
        /// per beat so a mid-burst error survives the mesh crossing and is
        /// replayed as Resp::Err at the requesting master NI.
        bool err = false;
        /// Head flits in a router input FIFO: the output channel
        /// pidx(dst_plane, out) the Head requests at that router, computed
        /// once when the flit is written into the FIFO (fifo_write). Sits
        /// in padding, so the flit does not grow.
        u16 chan = 0;
        u32 payload = 0;
        /// Fault-mode flit identity: fault draws are a pure function of
        /// (seed, router, serial), so fault sites are schedule-independent.
        /// Replayed packets get fresh serials (independent draws per
        /// attempt). Always 0 when faults are disabled.
        u64 serial = 0;
        /// Meaningful on Head flits; Tail flits carry hdr.inject only —
        /// plus, in fault mode, the packet checksum in `payload` and the
        /// response's Resp::Err summary in `err`.
        FlitHeader hdr;
    };
    static_assert(sizeof(Flit) <= 56,
                  "Flit::chan must sit in padding, not grow the flit");

    /// Per-input-port fault state (fault mode only). `serial` guards the
    /// draw: exactly one fault decision per (router, flit), re-evaluated
    /// when a new flit reaches the FIFO head. `blocked` is recomputed by
    /// the fault pre-pass each cycle the router is visited.
    struct PortFault {
        u64 serial = ~u64{0};            ///< flit the current draw applies to
        FaultKind kind = FaultKind::None;
        u32 mask = 0;                    ///< Corrupt: payload XOR mask
        u32 stall_left = 0;              ///< Stall: cycles still withheld
        bool swallowing = false;         ///< Drop: consuming the packet tail
        bool blocked = false;            ///< port excluded from moves this cycle
    };

    /// Every router input FIFO of the network in one allocation: FIFO `f`
    /// (fifo_index(router, pidx(plane, port))) is a ring of `depth` flits at
    /// buf_[f * depth], with its head position and length in head_[f] and
    /// len_[f]. Nothing grows or frees while the network runs.
    class FifoArena {
    public:
        void init(std::size_t fifos, u32 depth) {
            depth_ = depth;
            buf_.resize(fifos * depth);
            head_.assign(fifos, 0);
            len_.assign(fifos, 0);
        }
        [[nodiscard]] u32 size(std::size_t f) const noexcept { return len_[f]; }
        [[nodiscard]] bool empty(std::size_t f) const noexcept {
            return len_[f] == 0;
        }
        [[nodiscard]] const Flit& front(std::size_t f) const noexcept {
            return buf_[f * depth_ + head_[f]];
        }
        /// Caller guarantees size(f) < depth. Returns the stored flit.
        Flit& push(std::size_t f, const Flit& flit) noexcept {
            u32 pos = u32{head_[f]} + len_[f];
            if (pos >= depth_) pos -= depth_;
            Flit& slot = buf_[f * depth_ + pos];
            slot = flit;
            ++len_[f];
            return slot;
        }
        /// Caller guarantees !empty(f).
        Flit pop(std::size_t f) noexcept {
            const Flit flit = front(f);
            if (++head_[f] == depth_) head_[f] = 0;
            --len_[f];
            return flit;
        }

    private:
        u32 depth_ = 0;
        std::vector<Flit> buf_;
        std::vector<u16> head_; ///< ring index of each FIFO's front flit
        std::vector<u16> len_;  ///< flits held (<= depth <= kMaxFifoDepth)
    };

    /// One response beat buffered at the master NI, with its error flag.
    struct RxBeat {
        u32 data = 0;
        bool err = false;
    };

    struct MasterNi {
        ocp::ChannelRef ch;
        u16 node = 0;
        /// AwaitAck exists only in fault mode: writes are no longer posted
        /// (the NI holds the transaction until the slave's ack or retry
        /// exhaustion) — the documented degradation cost of reliability.
        enum class St : u8 { Idle, CollectWrite, AwaitResp, AwaitAck } st = St::Idle;
        ocp::Cmd cmd = ocp::Cmd::Idle;
        u16 burst = 1;
        u16 beats = 0;     ///< accepted write beats
        u16 resp_sent = 0; ///< response beats forwarded to the master
        bool err = false;  ///< decode failure: synthesize ERR beats
        Cycle created = 0; ///< creation stamp of the packet in flight
        std::deque<Flit> tx;   ///< flits awaiting injection (plane 0)
        std::deque<RxBeat> rx; ///< response beats received

        // --- open-loop source state (docs/traffic.md); untouched in
        // closed-loop mode ---
        /// Complete packets (Head..Tail back-to-back) built at the offered
        /// rate and awaiting their turn in tx. Bounded by the configured
        /// pending_limit; a full queue stalls the source (the stall shows
        /// up in master_wait_cycles).
        std::deque<Flit> pending;
        u16 pending_tails = 0; ///< complete packets in `pending`
        /// Read packets in flight (injected, response Tail not yet back).
        /// Posted writes never count. Bounds tx hand-off when the
        /// configured max_outstanding is nonzero.
        u32 outstanding = 0;

        // --- fault-mode recovery state (docs/faults.md) ---
        std::vector<Flit> pkt_copy; ///< retained request for replay; empty
                                    ///< once the transaction resolved
        u16 seq = 0;          ///< current transaction's sequence number
        u32 attempts = 0;     ///< replays issued for this transaction
        u32 tx_csum = 0;      ///< running checksum of the request packet
        Cycle deadline = 0;   ///< retry timer (checked once tx drained)
        Cycle first_inject = 0; ///< first-attempt stamp (retry latency)
        bool cur_err = false;   ///< accepted response carried an Err beat
        bool synth_err = false; ///< beats synthesized after retry exhaustion
        bool ack_ok = false;    ///< write ack received
        bool resp_taken = false; ///< a valid response already committed
        // Response reassembly: beats are staged and only released to rx
        // once the tail checksum validates (store-and-forward at the NI).
        bool rx_discard = false;    ///< swallowing a stale/unwanted response
        u32 rx_csum = 0;            ///< staged-packet checksum accumulator
        std::vector<RxBeat> rx_stage;
    };

    struct SlaveNi {
        ocp::ChannelRef ch;
        u16 node = 0;
        std::deque<Flit> rx; ///< incoming request flits (bounded)
        u16 tails_in_rx = 0; ///< complete packets buffered (Tail count)
        enum class St : u8 { Idle, DriveReq, AwaitResp } st = St::Idle;
        FlitHeader hdr;
        std::vector<u32> wdata;
        u16 beats_driven = 0;
        u16 beats_resp = 0;
        bool pending = false;
        bool resp_err = false; ///< response packet carries >= 1 Err beat
        std::deque<Flit> tx; ///< response flits awaiting injection (plane 1)

        // --- fault-mode state (docs/faults.md) ---
        u32 rx_csum = 0;      ///< checksum of the request packet arriving
        /// Flits of that packet already in rx — always rx's tail end, as the
        /// eject channel delivers one packet at a time. A count, not an rx
        /// index: Idle pops complete packets off the front meanwhile.
        u32 rx_pkt_flits = 0;
        u32 resp_csum = 0;    ///< checksum of the response packet being built
        /// Last sequence number served per requester node (replay dedupe);
        /// 0xFFFFFFFF = none yet.
        std::vector<u32> last_seq;
        /// A read response as first sent: its beats and which were Err.
        struct SavedResp {
            std::vector<u32> beats;
            u64 err_mask = 0; ///< bit k: beat k was Err
        };
        static_assert(ocp::kMaxBurstLen <= 64, "err_mask holds one bit per beat");
        /// Per requester node, the last read response: kept only for a
        /// slave whose reads have side effects, which answers a replayed
        /// read from it instead of reading again. Empty otherwise.
        std::vector<SavedResp> last_resp;
    };

    /// A committed flit transfer, collected against pre-move FIFO sizes and
    /// applied after all active routers were examined (two-phase, so the
    /// visit order of the worklist cannot influence behaviour).
    struct Move {
        u32 router = 0; ///< source router
        u32 slot = 0;   ///< source input slot pidx(plane, in_port)
        // Destination: either a neighbour router FIFO or a local NI.
        bool to_ni = false;
        u32 dst_router = 0;
        /// Destination input slot pidx(dst_plane, arrival port). The plane
        /// equals the source plane except on topology VC transitions
        /// (torus dateline crossings), where the flit moves from a VC0 FIFO
        /// into the far side's VC1 FIFO.
        u32 dst_slot = 0;
        int ni_index = 0;
        bool ni_is_master = false;
        /// Fault mode: discard the source flit instead of forwarding it
        /// (drop faults / packet swallowing). Emitted as a Move so FIFOs
        /// are still only mutated in the apply phase.
        bool drop = false;
        /// Fault mode: XOR the payload word with this mask on traversal.
        u32 corrupt_mask = 0;
    };

    /// A flit of `kind` with its data word and Err flag; the NI push
    /// helpers fill in the header and the fault stamps.
    [[nodiscard]] static Flit make_flit(Flit::Kind kind, u32 payload = 0,
                                        bool err = false) noexcept {
        Flit f;
        f.kind = kind;
        f.err = err;
        f.payload = payload;
        return f;
    }

    /// Flat index into a Router's per-(plane, port) vectors.
    [[nodiscard]] std::size_t pidx(int plane, int port) const noexcept {
        return static_cast<std::size_t>(plane) *
                   static_cast<std::size_t>(n_ports_) +
               static_cast<std::size_t>(port);
    }
    /// FifoArena index of input slot `slot` of router `r`.
    [[nodiscard]] std::size_t fifo_index(std::size_t r,
                                         std::size_t slot) const noexcept {
        return r * slots_ + slot;
    }

    /// Output port for `hdr` at `node`: the topology's next hop, or the
    /// local ejection port (LM for responses, LS for requests) on arrival.
    [[nodiscard]] int route(u16 node, const FlitHeader& hdr) const noexcept;
    /// Output channel pidx(dst_plane, out) a Head in input slot
    /// pidx(plane, port) of router `r` requests: the topology's next hop on
    /// the VC its transition assigns (pure in the inputs, so the packet's
    /// body lands on the same plane), or the VC0 eject channel of its
    /// protocol plane on arrival.
    [[nodiscard]] std::size_t request_channel(std::size_t r, int plane,
                                              int port,
                                              const FlitHeader& hdr) const;

    // --- per-router slot/channel bitsets: words_ u64 words per router,
    // bit pidx(plane, port) ---
    [[nodiscard]] u64* occ_words(std::size_t r) noexcept {
        return &occ_bits_[r * words_];
    }
    [[nodiscard]] u64* bound_words(std::size_t r) noexcept {
        return &bound_bits_[r * words_];
    }
    static void set_bit(u64* w, std::size_t i) noexcept {
        w[i >> 6] |= u64{1} << (i & 63);
    }
    static void clear_bit(u64* w, std::size_t i) noexcept {
        w[i >> 6] &= ~(u64{1} << (i & 63));
    }
    /// Router holds a flit or a wormhole binding (it must be on the
    /// worklist).
    [[nodiscard]] bool router_live(std::size_t r) const noexcept;
    /// Writes `flit` into input slot `si` of router `r` (caller checked
    /// capacity): marks the slot occupied and, for a Head, stores the
    /// output channel it requests here in Flit::chan.
    void fifo_write(std::size_t r, std::size_t si, const Flit& flit);
    /// Pops the front flit of input slot `si` of router `r`, clearing the
    /// slot's occupied bit when the FIFO drains.
    Flit fifo_take(std::size_t r, std::size_t si);

    // --- NI packet path: one per side, closed loop, open loop and fault
    // recovery alike ---
    void eval_master_ni(MasterNi& ni);
    void eval_slave_ni(SlaveNi& ni);
    /// Appends one request flit at a master NI: a Tail takes the packet's
    /// creation stamp; fault mode stamps it and keeps the replay copy. The
    /// flit goes to tx (closed loop) or to `pending` (open loop, where a
    /// Tail completes a pending packet).
    void push_request(MasterNi& ni, Flit flit);
    /// Takes the write beat on the NI's channel (dropped for a decode
    /// error) and closes the packet on the burst's last beat.
    void take_write_beat(MasterNi& ni);
    /// Appends one response flit at a slave NI: a Head is addressed back to
    /// the requester of `ni.hdr` and stamped now; a Tail carries the
    /// packet's stamps and Err summary; fault mode stamps every flit.
    void push_response(SlaveNi& ni, Flit flit);
    /// Hands the oldest complete pending packet to tx (restamping inject to
    /// now) when tx is empty and the outstanding bound allows (open loop).
    void open_drain_pending(MasterNi& ni);
    /// Response flit delivered to a master NI (apply phase). Fault mode
    /// first filters stale responses and validates the checksum, staging
    /// the beats until the Tail; open loop absorbs the data.
    void deliver_to_master(MasterNi& ni, const Flit& flit);
    /// Request flit delivered to a slave NI (apply phase). Fault mode
    /// drops a packet whose checksum fails.
    void deliver_to_slave(SlaveNi& ni, const Flit& flit);
    /// A packet's Tail reached its destination NI: the Err count or the
    /// latency sample (end-to-end; plus the source-queueing / in-network
    /// decomposition and the last-delivery stamp in open-loop mode).
    void record_delivery(const Flit& tail);
    void eval_routers();
    /// Dense reference allocator (router_gating = false): every input slot,
    /// every Head re-routed, every output channel walked.
    void collect_router_moves(std::size_t r);
    /// Sparse allocator (the gated path): occupied slots and requested or
    /// bound channels only, Head routes read from Flit::chan. Commits the
    /// same moves in the same (ascending channel) order as the dense one.
    void collect_router_moves_sparse(std::size_t r);
    /// Commits at most one move on output channel pidx(dp, out) from its
    /// bound input slot `src`, releasing the binding on a Tail.
    void commit_channel(std::size_t r, int dp, int out, int src);
    void inject(std::deque<Flit>& tx, u16 node, int port, int plane);
    /// Adds `r` to the active worklist unless already stamped this epoch.
    void enqueue_router(std::size_t r);

    // --- fault-mode helpers (only called when fault_on_;
    // docs/faults.md documents the protocol) ---
    /// Per-port fault pre-pass for nonempty input slot `si` of router `r`:
    /// draws the fault decision for its FIFO-head flit, emits drop moves,
    /// counts down stalls, and marks the port blocked.
    void collect_port_fault(std::size_t r, std::size_t si);
    /// Gives `flit` a fresh serial and steps its packet's running checksum
    /// `csum` (reset on a Head, stored in the Tail).
    void stamp_fault(Flit& flit, u32& csum);
    /// Replays the retained packet with fresh serials and doubled timeout,
    /// or — attempts exhausted — resolves the transaction as lost.
    void retry_or_give_up(MasterNi& ni);
    /// Transaction resolved at the master NI: delivered / err_delivered /
    /// recovered accounting, releases the retained copy.
    void complete_txn(MasterNi& ni);
    /// Queues the slave NI's write acknowledgement packet (Head + Tail).
    void push_ack(SlaveNi& ni);
    /// Sends `copy` again as the response to a replayed read.
    void replay_response(SlaveNi& ni, const SlaveNi::SavedResp& copy);

    XpipesConfig cfg_;
    /// Routing + adjacency provider (docs/topology.md); fixed per network.
    std::unique_ptr<Topology> topo_;
    int n_ports_ = 6;  ///< neighbour ports + the two local NI ports
    int lm_port_ = 4;  ///< local master-NI port (responses eject here)
    int ls_port_ = 5;  ///< local slave-NI port (requests eject here)
    int vc_count_ = 1; ///< topology VCs per protocol plane (Topology::vcs)
    int n_planes_ = kNumPlanes; ///< buffer planes: kNumPlanes * vc_count_
    std::size_t slots_ = 12; ///< input slots per router: n_planes_ * n_ports_
    /// Topology::link for every (router, neighbour port), resolved once at
    /// construction: links_[r * lm_port_ + port] (lm_port_ is the neighbour
    /// port count); node == kNoLink marks an unconnected port.
    static constexpr u32 kNoLink = ~u32{0};
    std::vector<TopoLink> links_;
    /// Bubble allocation rule for irregular (table) topologies: a Head
    /// flit only claims an inter-router link whose downstream FIFO keeps
    /// >= 1 slot free after the move (docs/topology.md) — a documented
    /// heuristic, not a deadlock-freedom proof. False on the mesh (whose
    /// allocation thus stays bit-identical) and on the torus (which is
    /// deadlock-free by dateline VCs instead).
    bool bubble_ = false;
    FaultModel fault_model_;
    /// cfg_.fault.enabled(), cached: every fault hook is guarded on it so
    /// the zero-fault configuration takes none of the new paths.
    bool fault_on_ = false;
    /// Next flit serial (fault mode); NI-evaluation order is fixed, so the
    /// assignment — and with it every fault site — is schedule-independent.
    u64 next_serial_ = 1;
    /// Master-NI transactions inside the fault domain not yet resolved
    /// (delivered / Err-reported / lost). Keeps quiet_for() at 0 so retry
    /// timers fire even when a drop left no flits in flight.
    u32 pending_txns_ = 0;
    // --- open-loop source mode (configure_open_source, docs/traffic.md) ---
    bool open_ = false;
    u32 open_max_out_ = 0;       ///< per-NI in-flight read bound, 0 = none
    u32 open_pending_limit_ = 64; ///< per-NI pending-packet queue bound
    /// Complete packets parked across all NI pending queues; keeps
    /// quiet_for() at 0 until the backlog drains. Always 0 in closed mode.
    u32 open_backlog_ = 0;
    AddressMap map_;
    // --- per-router switch state: slots_ entries per router (the port
    // budget is a topology property, not a compile-time bound), entry
    // r * slots_ + pidx(plane, port); the flits live in fifos_ ---
    /// Wormhole binding per *output channel* pidx(dst_plane, out): the
    /// input slot pidx(plane, port) whose packet owns the channel from Head
    /// to Tail, -1 when free. Keyed by the destination plane — not the
    /// input's — so with dateline VCs a packet bound for downstream VC0
    /// never holds the switch against one bound for VC1 of the same link
    /// (that coupling would re-create the ring dependency cycle the
    /// datelines break), and each downstream FIFO has a single writer per
    /// cycle by construction.
    std::vector<int> bound_in_;
    std::vector<int> rr_; ///< round-robin pointer per output channel
    std::vector<PortFault> port_fault_; ///< per input slot (fault mode)
    FifoArena fifos_; ///< every router input FIFO (nodes × slots_ rings)
    std::vector<MasterNi> masters_;
    std::vector<SlaveNi> slaves_;
    std::vector<int> master_at_node_; ///< node -> master index or -1
    std::vector<int> slave_at_node_;  ///< node -> slave index or -1
    std::vector<u16> slave_node_;     ///< slave index -> node
    XpipesStats stats_;
    bool any_activity_ = false;
    /// Local cycle counter, bit-aligned with sim::Kernel::now() (update()
    /// increments, advance() jumps); the time base for latency stamps.
    Cycle now_ = 0;
    /// Flits currently inside the network (router FIFOs + NI tx queues);
    /// the router phase is skipped when zero.
    u32 flits_active_ = 0;

    // --- active-router worklist (see docs/xpipes.md) ---
    /// Routers to visit in the next router phase. Invariant: every
    /// router_live() router is on the list (it may also hold just-drained
    /// routers until the next rebuild).
    std::vector<u32> active_;
    std::vector<u32> scratch_;      ///< rebuild target, swapped with active_
    std::vector<u64> active_mark_;  ///< per-router epoch stamp (dedup)
    u64 active_epoch_ = 1;
    std::vector<Move> moves_; ///< reused per cycle (allocation-free steady state)
    /// u64 words per router bitset: ceil(slots_ / 64). Output channels
    /// pidx(dst_plane, out) share the input slots' index space.
    std::size_t words_ = 1;
    /// Per router: input slots whose FIFO is nonempty (fifo_write /
    /// fifo_take) ...
    std::vector<u64> occ_bits_;
    /// ... and output channels holding a wormhole binding (bind/release).
    std::vector<u64> bound_bits_;
    // --- per-visit request scratch ---
    /// Dense allocator, slots_ long: output channel requested by the Head
    /// at the front of each input slot this visit, or -1; and whether each
    /// output channel has >= 1 request.
    std::vector<int> slot_req_;
    std::vector<u8> chan_requested_;
    /// Sparse allocator, words_ long: slots holding a requesting Head, and
    /// the channels they request.
    std::vector<u64> req_slots_;
    std::vector<u64> req_chans_;
};

} // namespace tgsim::ic
