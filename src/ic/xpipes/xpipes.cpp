#include "ic/xpipes/xpipes.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

namespace tgsim::ic {

namespace {
using ocp::kPoison;

/// Calls f(i) for every set bit i of the `n`-word bitset `w`, ascending.
/// Each word is read once before its bits are visited, so f may change
/// bits it has already been called for.
template <class F>
void for_each_bit(const u64* w, std::size_t n, F&& f) {
    for (std::size_t k = 0; k < n; ++k)
        for (u64 bits = w[k]; bits != 0; bits &= bits - 1)
            f(k * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
}
} // namespace

XpipesNetwork::XpipesNetwork(XpipesConfig cfg)
    : cfg_(cfg), fault_model_(cfg_.fault) {
    if (cfg_.topology != TopologyKind::Table &&
        (cfg_.width == 0 || cfg_.height == 0))
        throw std::invalid_argument{"XpipesNetwork: empty mesh"};
    if (cfg_.topology != TopologyKind::Table &&
        u64{cfg_.width} * u64{cfg_.height} > kMaxNodes)
        throw std::invalid_argument{
            "XpipesNetwork: " + std::to_string(cfg_.width) + "x" +
            std::to_string(cfg_.height) + " exceeds " +
            std::to_string(kMaxNodes) + " nodes (node ids are 16-bit)"};
    if (cfg_.fifo_depth < 2 || cfg_.fifo_depth > kMaxFifoDepth)
        throw std::invalid_argument{
            "XpipesNetwork: fifo_depth must be in [2, " +
            std::to_string(kMaxFifoDepth) + "]"};
    topo_ = make_topology(cfg_.topology, cfg_.width, cfg_.height, cfg_.graph);
    const int nbr_ports = static_cast<int>(topo_->neighbor_ports());
    lm_port_ = nbr_ports;
    ls_port_ = nbr_ports + 1;
    n_ports_ = nbr_ports + 2;
    vc_count_ = static_cast<int>(topo_->vcs());
    n_planes_ = kNumPlanes * vc_count_;
    bubble_ = topo_->needs_bubble();
    fault_on_ = cfg_.fault.enabled();
    slots_ =
        static_cast<std::size_t>(n_planes_) * static_cast<std::size_t>(n_ports_);
    bound_in_.assign(node_count() * slots_, -1);
    rr_.assign(node_count() * slots_, 0);
    port_fault_.resize(node_count() * slots_);
    fifos_.init(node_count() * slots_, cfg_.fifo_depth);
    links_.reserve(static_cast<std::size_t>(node_count()) *
                   static_cast<std::size_t>(nbr_ports));
    for (u32 r = 0; r < node_count(); ++r)
        for (int p = 0; p < nbr_ports; ++p)
            links_.push_back(topo_->link(r, p).value_or(TopoLink{kNoLink, 0}));
    words_ = (slots_ + 63) / 64;
    occ_bits_.assign(node_count() * words_, 0);
    bound_bits_.assign(node_count() * words_, 0);
    slot_req_.assign(slots_, -1);
    chan_requested_.assign(slots_, 0);
    req_slots_.assign(words_, 0);
    req_chans_.assign(words_, 0);
    master_at_node_.assign(node_count(), -1);
    slave_at_node_.assign(node_count(), -1);
    active_mark_.assign(node_count(), 0);
    active_.reserve(node_count());
    scratch_.reserve(node_count());
    moves_.reserve(16);
}

void XpipesNetwork::configure_open_source(u32 max_outstanding,
                                          u32 pending_limit) {
    if (pending_limit == 0)
        throw std::invalid_argument{
            "XpipesNetwork: open-loop pending_limit must be >= 1"};
    if (fault_on_)
        throw std::invalid_argument{
            "XpipesNetwork: open-loop sources cannot combine with fault "
            "injection"};
    open_ = true;
    open_max_out_ = max_outstanding;
    open_pending_limit_ = pending_limit;
}

std::size_t XpipesNetwork::connect_master(ocp::ChannelRef ch, int node) {
    if (node < 0 || static_cast<u32>(node) >= node_count())
        throw std::invalid_argument{"XpipesNetwork: master node out of range"};
    if (master_at_node_[static_cast<std::size_t>(node)] >= 0)
        throw std::invalid_argument{"XpipesNetwork: node already has a master NI"};
    MasterNi ni;
    ni.ch = ch;
    ni.node = static_cast<u16>(node);
    masters_.push_back(std::move(ni));
    master_at_node_[static_cast<std::size_t>(node)] =
        static_cast<int>(masters_.size() - 1);
    stats_.master_wait_cycles.push_back(0);
    return track_master(ch);
}

std::size_t XpipesNetwork::connect_slave(ocp::ChannelRef ch, u32 base, u32 size,
                                         int node, bool read_side_effects) {
    if (node < 0 || static_cast<u32>(node) >= node_count())
        throw std::invalid_argument{"XpipesNetwork: slave node out of range"};
    if (slave_at_node_[static_cast<std::size_t>(node)] >= 0)
        throw std::invalid_argument{"XpipesNetwork: node already has a slave NI"};
    const std::size_t idx = map_.add_range(base, size);
    SlaveNi ni;
    ni.ch = ch;
    ni.node = static_cast<u16>(node);
    if (fault_on_) ni.last_seq.assign(node_count(), 0xFFFFFFFFu);
    if (fault_on_ && read_side_effects) ni.last_resp.resize(node_count());
    slaves_.push_back(std::move(ni));
    slave_at_node_[static_cast<std::size_t>(node)] =
        static_cast<int>(slaves_.size() - 1);
    slave_node_.push_back(static_cast<u16>(node));
    return idx;
}

int XpipesNetwork::route(u16 node, const FlitHeader& hdr) const noexcept {
    const int port = topo_->route(node, hdr.dest_node);
    if (port >= 0) return port;
    return hdr.is_resp ? lm_port_ : ls_port_;
}

std::size_t XpipesNetwork::request_channel(std::size_t r, int plane, int port,
                                           const FlitHeader& hdr) const {
    const int ivc = plane % vc_count_;
    const int proto_plane = plane - ivc; // VC0 plane of this protocol plane
    const int out = route(static_cast<u16>(r), hdr);
    int dp = plane;
    if (out == lm_port_ || out == ls_port_)
        dp = proto_plane;
    else if (vc_count_ > 1)
        dp = proto_plane + topo_->next_vc(static_cast<u32>(r), port, out, ivc);
    return pidx(dp, out);
}

bool XpipesNetwork::router_live(std::size_t r) const noexcept {
    for (std::size_t k = r * words_; k < (r + 1) * words_; ++k)
        if ((occ_bits_[k] | bound_bits_[k]) != 0) return true;
    return false;
}

inline void XpipesNetwork::fifo_write(std::size_t r, std::size_t si,
                                      const Flit& flit) {
    Flit& stored = fifos_.push(fifo_index(r, si), flit);
    if (flit.kind == Flit::Kind::Head) {
        const int plane = static_cast<int>(si) / n_ports_;
        stored.chan = static_cast<u16>(request_channel(
            r, plane, static_cast<int>(si) - plane * n_ports_, flit.hdr));
    }
    set_bit(occ_words(r), si);
}

inline XpipesNetwork::Flit XpipesNetwork::fifo_take(std::size_t r,
                                                    std::size_t si) {
    const std::size_t f = fifo_index(r, si);
    const Flit flit = fifos_.pop(f);
    if (fifos_.empty(f)) clear_bit(occ_words(r), si);
    return flit;
}

inline void XpipesNetwork::stamp_fault(Flit& flit, u32& csum) {
    flit.serial = next_serial_++;
    switch (flit.kind) {
        case Flit::Kind::Head: csum = csum_init(); break;
        case Flit::Kind::Payload: csum = csum_step(csum, flit.payload); break;
        case Flit::Kind::Tail: flit.payload = csum; break;
    }
}

inline void XpipesNetwork::push_request(MasterNi& ni, Flit flit) {
    if (flit.kind == Flit::Kind::Tail)
        flit.hdr.created = flit.hdr.inject = ni.created;
    if (fault_on_) {
        if (flit.kind == Flit::Kind::Head) ni.pkt_copy.clear();
        stamp_fault(flit, ni.tx_csum);
        ni.pkt_copy.push_back(flit);
    }
    if (!open_) {
        ni.tx.push_back(flit);
        ++flits_active_;
        return;
    }
    ni.pending.push_back(flit);
    if (flit.kind != Flit::Kind::Tail) return;
    ++ni.pending_tails;
    ++open_backlog_;
    if (ni.pending_tails > stats_.pending_peak)
        stats_.pending_peak = ni.pending_tails;
}

inline void XpipesNetwork::take_write_beat(MasterNi& ni) {
    if (!ni.err)
        push_request(ni, make_flit(Flit::Kind::Payload, ni.ch.m_data()));
    if (++ni.beats < ni.burst) {
        ni.st = MasterNi::St::CollectWrite;
        return;
    }
    if (!ni.err) push_request(ni, make_flit(Flit::Kind::Tail));
    // Fault mode holds the write until the slave's ack; otherwise it is
    // posted.
    ni.st = (fault_on_ && !ni.err) ? MasterNi::St::AwaitAck
                                   : MasterNi::St::Idle;
}

void XpipesNetwork::eval_master_ni(MasterNi& ni) {
    const ocp::ChannelRef ch = ni.ch;
    ch.tidy_response();
    switch (ni.st) {
        case MasterNi::St::Idle: {
            if (ch.m_cmd() == ocp::Cmd::Idle) break;
            // Backpressure: a closed-loop NI takes the next command once the
            // previous packet has left tx; an open-loop source once its
            // pending queue has room — the only stall it ever sees.
            if (open_ ? ni.pending_tails >= open_pending_limit_
                      : !ni.tx.empty()) {
                stats_.master_wait_cycles[static_cast<std::size_t>(
                    &ni - masters_.data())] += 1;
                break;
            }
            ni.cmd = ch.m_cmd();
            ni.burst = ocp::is_burst(ni.cmd)
                           ? std::max<u16>(1, std::min<u16>(ch.m_burst(), ocp::kMaxBurstLen))
                           : u16{1};
            ni.beats = 0;
            ni.resp_sent = 0;
            ni.rx.clear();
            const auto slave_idx = map_.decode(ch.m_addr());
            ni.err = !slave_idx;
            any_activity_ = true;
            ch.s_cmd_accept() = true; // consume the first (or only) beat
            ch.touch_s();
            if (ni.err) {
                ++stats_.decode_errors;
                // A decode-error write has its beats collected and
                // discarded; a closed-loop read is answered with ERR beats.
                // Open-loop masters never wait for read data.
                if (ocp::is_write(ni.cmd)) {
                    take_write_beat(ni);
                } else if (!open_) {
                    for (u16 i = 0; i < ni.burst; ++i)
                        ni.rx.push_back(RxBeat{kPoison, true});
                    ni.st = MasterNi::St::AwaitResp;
                }
                break;
            }
            Flit head;
            head.kind = Flit::Kind::Head;
            head.hdr.cmd = ni.cmd;
            head.hdr.addr = ch.m_addr();
            head.hdr.burst = ni.burst;
            head.hdr.src_node = ni.node;
            head.hdr.dest_node = slave_node_[*slave_idx];
            head.hdr.is_resp = false;
            // Open loop restamps inject when the packet leaves pending.
            head.hdr.created = head.hdr.inject = ni.created = now_;
            if (fault_on_) {
                // The transaction enters the fault domain: arm the retry
                // timer, open the accountability window (docs/faults.md).
                head.hdr.seq = ++ni.seq;
                ni.attempts = 0;
                ni.first_inject = now_;
                ni.deadline = now_ + cfg_.fault.retry_timeout;
                ni.cur_err = false;
                ni.synth_err = false;
                ni.resp_taken = false;
                ni.ack_ok = false;
                ++pending_txns_;
                ++stats_.reliability.injected;
            }
            push_request(ni, head);
            ++stats_.packets_sent;
            if (ocp::is_write(ni.cmd)) {
                take_write_beat(ni);
            } else {
                push_request(ni, make_flit(Flit::Kind::Tail));
                // Open-loop reads stay Idle: the response is absorbed at
                // delivery, never replayed over OCP.
                if (!open_) ni.st = MasterNi::St::AwaitResp;
            }
            break;
        }
        case MasterNi::St::CollectWrite: {
            if (!ocp::is_write(ch.m_cmd())) break; // master must hold the burst
            ch.s_cmd_accept() = true;
            ch.touch_s();
            take_write_beat(ni);
            any_activity_ = true;
            break;
        }
        case MasterNi::St::AwaitResp: {
            // Fault mode: no response and nothing left to inject — check
            // the retry timer (pkt_copy is empty once the transaction
            // resolved or for decode-error turnarounds, disarming it).
            if (fault_on_ && !ni.pkt_copy.empty() && ni.rx.empty() &&
                ni.tx.empty() && now_ >= ni.deadline) {
                retry_or_give_up(ni);
                break;
            }
            if (ni.rx.empty() || !ch.m_resp_accept()) break;
            const RxBeat beat = ni.rx.front();
            ch.s_resp() = beat.err ? ocp::Resp::Err : ocp::Resp::Dva;
            ch.s_data() = beat.data;
            ch.s_resp_last() = (ni.resp_sent + 1 == ni.burst);
            ch.touch_s();
            ni.rx.pop_front();
            ++ni.resp_sent;
            if (ni.resp_sent == ni.burst) {
                if (fault_on_ && !ni.err) complete_txn(ni);
                ni.st = MasterNi::St::Idle;
            }
            any_activity_ = true;
            break;
        }
        case MasterNi::St::AwaitAck: {
            if (ni.ack_ok) {
                complete_txn(ni);
                ni.ack_ok = false;
                ni.st = MasterNi::St::Idle;
                any_activity_ = true;
                break;
            }
            if (!ni.pkt_copy.empty() && ni.tx.empty() && now_ >= ni.deadline)
                retry_or_give_up(ni);
            break;
        }
    }
    // Open-loop drain runs after acceptance, so a packet sealed this cycle
    // with an idle tx enters the network this cycle (zero source-queueing
    // latency at zero load, matching closed-loop timing).
    if (open_) open_drain_pending(ni);
}

void XpipesNetwork::open_drain_pending(MasterNi& ni) {
    if (ni.pending_tails == 0 || !ni.tx.empty()) return;
    if (open_max_out_ > 0 && ni.outstanding >= open_max_out_) return;
    // Hand the oldest complete packet to tx; its in-network life starts
    // now, so restamp inject on the stamp-carrying flits (Head and Tail).
    const bool read = ocp::is_read(ni.pending.front().hdr.cmd);
    for (;;) {
        Flit f = ni.pending.front();
        ni.pending.pop_front();
        if (f.kind != Flit::Kind::Payload) f.hdr.inject = now_;
        const bool was_tail = f.kind == Flit::Kind::Tail;
        ni.tx.push_back(f);
        ++flits_active_;
        if (was_tail) break;
    }
    --ni.pending_tails;
    --open_backlog_;
    if (read) ++ni.outstanding;
    any_activity_ = true;
}

void XpipesNetwork::record_delivery(const Flit& tail) {
    if (open_) stats_.last_delivery = now_;
    // Err-carrying responses are counted, not sampled: an error turnaround
    // is not a service time and would skew p50/p99 (docs/traffic.md).
    // Request tails never carry err.
    if (tail.err) {
        ++stats_.resp_err_packets;
        return;
    }
    if (!cfg_.collect_latency) return;
    stats_.packet_latency.record(now_ - tail.hdr.created);
    if (open_) {
        // Per-packet decomposition, recorded back-to-back so sample i in
        // each series refers to the same packet and
        // source_q + net == end-to-end holds exactly in integer cycles.
        stats_.net_latency.record(now_ - tail.hdr.inject);
        stats_.source_q_latency.record(tail.hdr.inject - tail.hdr.created);
    }
}

void XpipesNetwork::complete_txn(MasterNi& ni) {
    if (ni.synth_err) return; // already resolved as lost at retry exhaustion
    auto& rel = stats_.reliability;
    if (ni.cur_err) {
        ++rel.err_delivered;
    } else {
        ++rel.delivered;
        if (ni.attempts > 0) {
            ++rel.recovered;
            rel.retry_latency.record(now_ - ni.first_inject);
        }
    }
    --pending_txns_;
    ni.pkt_copy.clear();
}

void XpipesNetwork::retry_or_give_up(MasterNi& ni) {
    auto& rel = stats_.reliability;
    any_activity_ = true;
    if (ni.attempts >= cfg_.fault.max_retries) {
        ++rel.lost;
        --pending_txns_;
        ni.pkt_copy.clear();
        if (ocp::is_write(ni.cmd)) {
            ni.st = MasterNi::St::Idle; // abandoned write, counted lost
        } else {
            // Reads block the master: synthesize Resp::Err beats so the
            // transaction terminates visibly instead of hanging.
            ni.synth_err = true;
            ni.rx.clear();
            for (u16 i = 0; i < ni.burst; ++i)
                ni.rx.push_back(RxBeat{kPoison, true});
        }
        return;
    }
    ++ni.attempts;
    ++rel.retries;
    for (Flit f : ni.pkt_copy) {
        f.serial = next_serial_++; // fresh serials: independent fault draws
        ni.tx.push_back(f);
        ++flits_active_;
    }
    // Bounded exponential backoff: replayed traffic must not amplify the
    // congestion that delayed the original response.
    const u32 shift = std::min(ni.attempts, 6u);
    ni.deadline = now_ + (cfg_.fault.retry_timeout << shift);
    ni.resp_taken = false;
    ni.ack_ok = false;
}

inline void XpipesNetwork::push_response(SlaveNi& ni, Flit flit) {
    switch (flit.kind) {
        case Flit::Kind::Head:
            // Response packets are measured per packet: restamp with their
            // own creation cycle (the request's delivery sample was already
            // taken when its Tail reached this NI). Responses never queue at
            // a source, so created == inject and their source-queueing
            // latency is 0 in open mode.
            ni.hdr.created = ni.hdr.inject = now_;
            ni.resp_err = false;
            flit.hdr = ni.hdr;
            flit.hdr.is_resp = true;
            flit.hdr.dest_node = ni.hdr.src_node;
            flit.hdr.src_node = ni.node;
            ++stats_.packets_sent;
            break;
        case Flit::Kind::Payload:
            ni.resp_err = ni.resp_err || flit.err;
            break;
        case Flit::Kind::Tail:
            // The tail summarises the packet: err marks an Err-carrying
            // response (kept out of the latency percentiles at the far NI).
            flit.hdr.created = flit.hdr.inject = ni.hdr.created;
            flit.err = ni.resp_err;
            break;
    }
    if (fault_on_) stamp_fault(flit, ni.resp_csum);
    ni.tx.push_back(flit);
    ++flits_active_;
}

void XpipesNetwork::eval_slave_ni(SlaveNi& ni) {
    const ocp::ChannelRef ch = ni.ch;
    ch.tidy_request();
    switch (ni.st) {
        case SlaveNi::St::Idle: {
            if (ni.tails_in_rx == 0) break;
            // Pop one whole packet (Head .. Tail).
            ni.hdr = ni.rx.front().hdr;
            ni.rx.pop_front();
            ni.wdata.clear();
            while (!ni.rx.empty() && ni.rx.front().kind == Flit::Kind::Payload) {
                ni.wdata.push_back(ni.rx.front().payload);
                ni.rx.pop_front();
            }
            // Tail
            ni.rx.pop_front();
            --ni.tails_in_rx;
            ni.beats_driven = 0;
            ni.beats_resp = 0;
            ni.pending = false;
            if (fault_on_) {
                // Replay dedupe: a duplicate write (its first copy was
                // applied but the ack got lost) must not be re-applied to
                // the slave — just re-acknowledge. A duplicate read of a
                // slave whose reads have side effects (a test-and-set
                // semaphore) is answered from the copy of the first
                // response; reads of plain memory are re-served.
                const auto src = static_cast<std::size_t>(ni.hdr.src_node);
                if (ni.last_seq[src] == ni.hdr.seq) {
                    ++stats_.reliability.dup_requests;
                    if (ocp::is_write(ni.hdr.cmd)) {
                        push_ack(ni);
                        any_activity_ = true;
                        break;
                    }
                    if (!ni.last_resp.empty()) {
                        replay_response(ni, ni.last_resp[src]);
                        any_activity_ = true;
                        break;
                    }
                } else {
                    ni.last_seq[src] = ni.hdr.seq;
                }
            }
            ni.st = SlaveNi::St::DriveReq;
            [[fallthrough]];
        }
        case SlaveNi::St::DriveReq: {
            any_activity_ = true;
            const bool accepted = ni.pending && ch.s_cmd_accept();
            if (accepted) {
                ni.pending = false;
                ++ni.beats_driven;
                if (ocp::is_read(ni.hdr.cmd)) {
                    ni.st = SlaveNi::St::AwaitResp;
                    break;
                }
                if (ni.beats_driven == ni.hdr.burst) {
                    if (fault_on_) push_ack(ni); // write delivered: ack it
                    ni.st = SlaveNi::St::Idle;
                    break;
                }
            }
            // Drive the current beat (write data comes from the packet
            // buffer, so there is no bubble between beats).
            ch.m_cmd() = ni.hdr.cmd;
            ch.m_addr() = ni.hdr.addr;
            ch.m_burst() = ni.hdr.burst;
            ch.m_data() = ocp::is_write(ni.hdr.cmd) && ni.beats_driven < ni.wdata.size()
                            ? ni.wdata[ni.beats_driven]
                            : 0;
            ch.touch_m();
            ni.pending = true;
            break;
        }
        case SlaveNi::St::AwaitResp: {
            any_activity_ = true;
            if (ch.s_resp() == ocp::Resp::None) break;
            ch.m_resp_accept() = true;
            ch.touch_m();
            if (ni.beats_resp == 0)
                push_response(ni, make_flit(Flit::Kind::Head));
            // An Err beat travels as a poisoned payload with the error flag
            // set, so the far NI can replay it as Resp::Err instead of
            // laundering it into ordinary data.
            const bool err = ch.s_resp() == ocp::Resp::Err;
            const u32 data = err ? kPoison : ch.s_data();
            push_response(ni, make_flit(Flit::Kind::Payload, data, err));
            if (!ni.last_resp.empty()) {
                SlaveNi::SavedResp& copy =
                    ni.last_resp[static_cast<std::size_t>(ni.hdr.src_node)];
                if (ni.beats_resp == 0) {
                    copy.beats.clear();
                    copy.err_mask = 0;
                }
                if (err) copy.err_mask |= u64{1} << ni.beats_resp;
                copy.beats.push_back(data);
            }
            if (++ni.beats_resp == ni.hdr.burst) {
                push_response(ni, make_flit(Flit::Kind::Tail));
                ni.st = SlaveNi::St::Idle;
            }
            break;
        }
    }
}

void XpipesNetwork::replay_response(SlaveNi& ni, const SlaveNi::SavedResp& copy) {
    push_response(ni, make_flit(Flit::Kind::Head));
    for (std::size_t k = 0; k < copy.beats.size(); ++k)
        push_response(ni, make_flit(Flit::Kind::Payload, copy.beats[k],
                                    ((copy.err_mask >> k) & 1u) != 0));
    push_response(ni, make_flit(Flit::Kind::Tail));
}

void XpipesNetwork::push_ack(SlaveNi& ni) {
    // Write acknowledgement: a Head + Tail response-plane packet echoing
    // the request's seq. Only exists in fault mode (writes stop being
    // posted end-to-end — the documented cost of reliable delivery).
    push_response(ni, make_flit(Flit::Kind::Head));
    push_response(ni, make_flit(Flit::Kind::Tail));
}

void XpipesNetwork::enqueue_router(std::size_t r) {
    if (active_mark_[r] == active_epoch_) return;
    active_mark_[r] = active_epoch_;
    active_.push_back(static_cast<u32>(r));
}

void XpipesNetwork::inject(std::deque<Flit>& tx, u16 node, int port, int plane) {
    if (tx.empty()) return;
    const std::size_t si = pidx(plane, port);
    if (fifos_.size(fifo_index(node, si)) >= cfg_.fifo_depth) return;
    fifo_write(node, si, tx.front());
    tx.pop_front();
    enqueue_router(node);
    any_activity_ = true;
}

void XpipesNetwork::collect_port_fault(std::size_t r, std::size_t si) {
    PortFault& pf = port_fault_[fifo_index(r, si)];
    pf.blocked = false;
    if (pf.swallowing) {
        // A drop fault consumed this packet's head; swallow the remaining
        // flits one per cycle (link rate) until the Tail.
        Move mv;
        mv.router = static_cast<u32>(r);
        mv.slot = static_cast<u32>(si);
        mv.drop = true;
        moves_.push_back(mv);
        pf.blocked = true;
        return;
    }
    const Flit& f = fifos_.front(fifo_index(r, si));
    if (pf.serial != f.serial) {
        // Exactly one fault decision per (router, flit), drawn when the
        // flit reaches the FIFO head.
        pf.serial = f.serial;
        const FaultModel::Draw d =
            fault_model_.draw(static_cast<u32>(r), f.serial);
        pf.kind = d.kind;
        pf.mask = d.mask;
        pf.stall_left = d.stall;
        if (d.kind == FaultKind::Stall) ++stats_.reliability.stall_events;
    }
    if (pf.stall_left > 0) {
        --pf.stall_left;
        ++stats_.reliability.stall_cycles;
        pf.blocked = true;
        return;
    }
    if (pf.kind == FaultKind::Drop && f.kind == Flit::Kind::Head) {
        Move mv;
        mv.router = static_cast<u32>(r);
        mv.slot = static_cast<u32>(si);
        mv.drop = true;
        moves_.push_back(mv);
        pf.blocked = true;
    }
}

void XpipesNetwork::collect_router_moves(std::size_t r) {
    ++stats_.router_visits;
    int* const bound_in = &bound_in_[r * slots_];
    int* const rr = &rr_[r * slots_];
    const PortFault* const fault = &port_fault_[r * slots_];
    const std::size_t base = fifo_index(r, 0);
    if (fault_on_)
        for (std::size_t si = 0; si < slots_; ++si)
            if (!fifos_.empty(base + si)) collect_port_fault(r, si);

    // Request pass: each Head flit at a FIFO front is routed once per visit
    // and requests the single output channel it can use. Nothing after
    // this pass touches a FIFO or a fault flag until the apply phase, so
    // these are exactly the Heads a per-channel rescan of the inputs would
    // find.
    std::fill(chan_requested_.begin(), chan_requested_.end(), u8{0});
    for (int p = 0; p < n_planes_; ++p) {
        for (int i = 0; i < n_ports_; ++i) {
            const std::size_t si = pidx(p, i);
            slot_req_[si] = -1;
            if (fifos_.empty(base + si)) continue;
            const Flit& head = fifos_.front(base + si);
            if (head.kind != Flit::Kind::Head) continue;
            if (fault_on_ && fault[si].blocked)
                continue; // stalled or being dropped
            const std::size_t oi = request_channel(r, p, i, head.hdr);
            slot_req_[si] = static_cast<int>(oi);
            chan_requested_[oi] = 1;
        }
    }

    // The switch is allocated per *output channel* — (destination buffer
    // plane, out port) — not per input plane. With one VC a flit's
    // destination plane equals its source plane and this is exactly the
    // original (plane, out) iteration. With dateline VCs the distinction
    // is load-bearing: a packet bound for downstream VC0 must never hold
    // the switch against a packet bound for VC1 of the same link, or the
    // coupling re-creates the ring dependency cycle the datelines break
    // (docs/topology.md). One binding slot per output channel also makes
    // each downstream FIFO single-writer-per-cycle by construction, so
    // the live capacity reads in commit_channel stay exact.
    for (int dp = 0; dp < n_planes_; ++dp) {
        // Protocol plane: requests (0) or responses (1), VC-agnostic.
        const int proto = dp / vc_count_;
        const int dvc = dp % vc_count_;
        for (int out = 0; out < n_ports_; ++out) {
            // Responses leave through LM, requests through LS; neighbour
            // links carry both planes. An NI rx is one resource, not one
            // per VC, so ejects are arbitrated on the VC0 slot and drain
            // every input VC of their protocol plane.
            if (out == lm_port_ && proto == 0) continue;
            if (out == ls_port_ && proto == 1) continue;
            const bool eject = out == lm_port_ || out == ls_port_;
            if (eject && dvc != 0) continue;
            const std::size_t oi = pidx(dp, out);

            // Input slot pidx(plane, port) wormhole-bound to this output
            // channel, held from Head to Tail.
            int src = bound_in[oi];
            if (src < 0) {
                if (!chan_requested_[oi]) continue;
                // Allocate: round-robin over the requesting input ports,
                // VC0 before VC1 within a port.
                for (int k = 0; k < n_ports_ && src < 0; ++k) {
                    int i = rr[oi] + k;
                    if (i >= n_ports_) i -= n_ports_;
                    for (int ivc = 0; ivc < vc_count_; ++ivc) {
                        const std::size_t si = pidx(proto * vc_count_ + ivc, i);
                        if (slot_req_[si] == static_cast<int>(oi)) {
                            src = static_cast<int>(si);
                            break;
                        }
                    }
                }
                bound_in[oi] = src;
                set_bit(bound_words(r), oi);
                rr[oi] = (src % n_ports_ + 1) % n_ports_;
            }
            commit_channel(r, dp, out, src);
        }
    }
}

void XpipesNetwork::collect_router_moves_sparse(std::size_t r) {
    ++stats_.router_visits;
    int* const bound_in = &bound_in_[r * slots_];
    int* const rr = &rr_[r * slots_];
    const PortFault* const fault = &port_fault_[r * slots_];
    const std::size_t base = fifo_index(r, 0);
    const u64* occ = occ_words(r);
    if (fault_on_)
        for_each_bit(occ, words_,
                     [&](std::size_t si) { collect_port_fault(r, si); });

    // Request pass over occupied slots only: the Head's channel was routed
    // when it was written into this FIFO (Flit::chan). req_chans_ is all
    // zero between visits (the channel walk clears each word it reads).
    for (std::size_t k = 0; k < words_; ++k) {
        u64 req = 0;
        for (u64 bits = occ[k]; bits != 0; bits &= bits - 1) {
            const std::size_t si =
                k * 64 + static_cast<std::size_t>(std::countr_zero(bits));
            const Flit& head = fifos_.front(base + si);
            if (head.kind != Flit::Kind::Head) continue;
            if (fault_on_ && fault[si].blocked) continue;
            req |= u64{1} << (si & 63);
            set_bit(req_chans_.data(), head.chan);
        }
        req_slots_[k] = req;
    }

    // Channels with a request or a binding, in ascending pidx(dp, out)
    // order — the dense walk's order, which skips every other channel. A
    // requested channel never fails the dense walk's eject filters: a
    // Head only requests the eject channel of its own protocol plane, on
    // VC0.
    for (std::size_t k = 0; k < words_; ++k) {
        u64 bits = req_chans_[k] | bound_words(r)[k];
        req_chans_[k] = 0;
        for (; bits != 0; bits &= bits - 1) {
            const std::size_t oi =
                k * 64 + static_cast<std::size_t>(std::countr_zero(bits));
            int src = bound_in[oi];
            if (src < 0) {
                // Allocate: the requester first in the dense round-robin
                // order — smallest port distance from rr, then VC.
                int best_key = 0;
                const int rr_oi = rr[oi];
                for_each_bit(req_slots_.data(), words_, [&](std::size_t si) {
                    if (fifos_.front(base + si).chan != oi) return;
                    const int plane = static_cast<int>(si) / n_ports_;
                    int d = static_cast<int>(si) - plane * n_ports_ - rr_oi;
                    if (d < 0) d += n_ports_;
                    const int key = d * vc_count_ + plane % vc_count_;
                    if (src < 0 || key < best_key) {
                        src = static_cast<int>(si);
                        best_key = key;
                    }
                });
                bound_in[oi] = src;
                set_bit(bound_words(r), oi);
                rr[oi] = (src % n_ports_ + 1) % n_ports_;
            }
            const int dp = static_cast<int>(oi) / n_ports_;
            commit_channel(r, dp, static_cast<int>(oi) - dp * n_ports_, src);
        }
    }
}

inline void XpipesNetwork::commit_channel(std::size_t r, int dp, int out,
                                          int src) {
    const std::size_t sf = fifo_index(r, static_cast<std::size_t>(src));
    if (fifos_.empty(sf)) return;
    if (fault_on_ && port_fault_[sf].blocked)
        return; // fault pre-pass withheld this flit this cycle
    const Flit& front = fifos_.front(sf);

    // Destination capacities are read live: nothing pops or pushes a FIFO
    // until the apply phase, so these reads see exactly the start-of-phase
    // sizes (each input FIFO also has a single writer per cycle, so
    // committed moves cannot overfill one).
    Move mv;
    mv.router = static_cast<u32>(r);
    mv.slot = static_cast<u32>(src);
    if (fault_on_ && front.kind == Flit::Kind::Payload) {
        const PortFault& pf = port_fault_[sf];
        if (pf.kind == FaultKind::Corrupt && pf.serial == front.serial)
            mv.corrupt_mask = pf.mask;
    }
    if (out == lm_port_ || out == ls_port_) {
        mv.to_ni = true;
        mv.ni_is_master = (out == lm_port_);
        const int ni =
            mv.ni_is_master ? master_at_node_[r] : slave_at_node_[r];
        if (ni < 0) return; // routed to a node without an NI: stuck
        mv.ni_index = ni;
        const std::size_t rx_size =
            mv.ni_is_master ? masters_[static_cast<std::size_t>(ni)].rx.size()
                            : slaves_[static_cast<std::size_t>(ni)].rx.size();
        if (rx_size >= ocp::kMaxBurstLen + 4) return;
    } else {
        const TopoLink nbr = links_[r * static_cast<std::size_t>(lm_port_) +
                                    static_cast<std::size_t>(out)];
        if (nbr.node == kNoLink) return; // dead port: routing never selects one
        mv.dst_router = nbr.node;
        mv.dst_slot = static_cast<u32>(pidx(dp, nbr.port));
        const u32 dst_size = fifos_.size(fifo_index(nbr.node, mv.dst_slot));
        if (dst_size >= cfg_.fifo_depth) return;
        // Bubble rule (irregular topologies only): a Head may only claim a
        // link whose downstream FIFO keeps a free slot after the move, so a
        // dependency cycle never fills completely (docs/topology.md — a
        // heuristic, not a proof). Mesh and torus allocation are untouched
        // — bubble_ is false there.
        if (bubble_ && front.kind == Flit::Kind::Head &&
            dst_size + 2 > cfg_.fifo_depth)
            return;
    }
    moves_.push_back(mv);
    // Advance / release the wormhole binding bookkeeping now: the move is
    // committed.
    if (front.kind == Flit::Kind::Tail) {
        const std::size_t oi = pidx(dp, out);
        bound_in_[r * slots_ + oi] = -1;
        clear_bit(bound_words(r), oi);
    }
}

inline void XpipesNetwork::deliver_to_master(MasterNi& ni, const Flit& flit) {
    if (fault_on_) {
        // Recovery (docs/faults.md): beats are staged and only released to
        // rx once the tail checksum validates (store-and-forward at the NI).
        switch (flit.kind) {
            case Flit::Kind::Head: {
                // Accept only the response the NI is actually waiting for:
                // right state, matching seq, transaction not yet satisfied.
                // Everything else (duplicate acks, replays overtaken by
                // their original) is swallowed whole.
                const bool awaiting = (ni.st == MasterNi::St::AwaitResp ||
                                       ni.st == MasterNi::St::AwaitAck) &&
                                      !ni.err && !ni.synth_err &&
                                      !ni.resp_taken;
                const bool want = awaiting && flit.hdr.seq == ni.seq;
                ni.rx_discard = !want;
                if (!want) ++stats_.reliability.stale_discarded;
                ni.rx_stage.clear();
                ni.rx_csum = csum_init();
                return;
            }
            case Flit::Kind::Payload:
                if (ni.rx_discard) return;
                ni.rx_stage.push_back(RxBeat{flit.payload, flit.err});
                ni.rx_csum = csum_step(ni.rx_csum, flit.payload);
                return;
            case Flit::Kind::Tail:
                if (ni.rx_discard) {
                    ni.rx_discard = false;
                    return;
                }
                if (ni.rx_csum != flit.payload) {
                    // Read data corrupted in flight: reject the packet and
                    // pull the retry deadline in — the replay starts on the
                    // next NI evaluation instead of waiting out the timeout.
                    ++stats_.reliability.checksum_fails;
                    ni.rx_stage.clear();
                    ni.deadline = now_;
                    return;
                }
                ni.resp_taken = true;
                if (ocp::is_write(ni.cmd)) {
                    ni.ack_ok = true; // Head+Tail ack packet
                } else {
                    for (const RxBeat& b : ni.rx_stage) ni.rx.push_back(b);
                }
                ni.rx_stage.clear();
                ni.cur_err = flit.err;
                break;
        }
    } else if (flit.kind == Flit::Kind::Payload) {
        // Open-loop NIs absorb response data: the transaction completed at
        // the source when the fabric accepted it, so rx stays empty and
        // ejection never backpressures.
        if (!open_) ni.rx.push_back(RxBeat{flit.payload, flit.err});
        return;
    }
    if (flit.kind != Flit::Kind::Tail) return;
    ++stats_.resp_packets_delivered;
    if (open_ && ni.outstanding > 0) --ni.outstanding;
    record_delivery(flit);
}

inline void XpipesNetwork::deliver_to_slave(SlaveNi& ni, const Flit& flit) {
    if (fault_on_) {
        switch (flit.kind) {
            case Flit::Kind::Head:
                ni.rx_pkt_flits = 1;
                ni.rx_csum = csum_init();
                break;
            case Flit::Kind::Payload:
                ++ni.rx_pkt_flits;
                ni.rx_csum = csum_step(ni.rx_csum, flit.payload);
                break;
            case Flit::Kind::Tail:
                if (ni.rx_csum != flit.payload) {
                    // Write data corrupted in flight: reject the whole
                    // packet before it touches the slave; the master's
                    // timeout replays it.
                    ++stats_.reliability.checksum_fails;
                    ni.rx.resize(ni.rx.size() - ni.rx_pkt_flits);
                    return;
                }
                break;
        }
    }
    ni.rx.push_back(flit);
    if (flit.kind != Flit::Kind::Tail) return;
    ++ni.tails_in_rx;
    ++stats_.req_packets_delivered;
    record_delivery(flit);
}

void XpipesNetwork::eval_routers() {
    ++stats_.router_phase_cycles;
    moves_.clear();

    // Collect phase: examine routers (worklist or full scan), committing
    // moves against the untouched FIFO state. Per-router processing only
    // reads other routers' FIFO sizes, so worklist order is irrelevant —
    // behaviour is bit-identical to the index-ordered full scan.
    if (cfg_.router_gating) {
        for (const u32 r : active_) collect_router_moves_sparse(r);
    } else {
        for (std::size_t r = 0; r < node_count(); ++r)
            collect_router_moves(r);
    }

    // Apply all moves.
    for (const Move& mv : moves_) {
        Flit flit = fifo_take(mv.router, mv.slot);
        any_activity_ = true;
        if (mv.drop) {
            // Fault: the flit vanishes. Head opens swallow mode on the
            // port (the rest of the packet follows it into the void),
            // Tail closes it.
            --flits_active_;
            PortFault& pf = port_fault_[fifo_index(mv.router, mv.slot)];
            pf.swallowing = (flit.kind != Flit::Kind::Tail);
            if (flit.kind == Flit::Kind::Head)
                ++stats_.reliability.packets_dropped;
            continue;
        }
        ++stats_.flits_routed;
        if (mv.corrupt_mask != 0) {
            flit.payload ^= mv.corrupt_mask;
            ++stats_.reliability.flits_corrupted;
        }
        if (mv.to_ni) {
            --flits_active_;
            const auto ni = static_cast<std::size_t>(mv.ni_index);
            if (mv.ni_is_master)
                deliver_to_master(masters_[ni], flit);
            else
                deliver_to_slave(slaves_[ni], flit);
        } else {
            fifo_write(mv.dst_router, mv.dst_slot, flit);
        }
    }

    // Rebuild the worklist for the next phase: survivors that still hold
    // flits or a binding (covers moves blocked on back-pressure — their
    // flits stay put, so stalled wormholes remain live) plus every move
    // destination. Epoch stamps deduplicate; inject() appends under the
    // same epoch afterwards.
    ++active_epoch_;
    scratch_.clear();
    const auto keep = [this](u32 r) {
        if (!router_live(r)) return;
        if (active_mark_[r] == active_epoch_) return;
        active_mark_[r] = active_epoch_;
        scratch_.push_back(r);
    };
    for (const u32 r : active_) keep(r);
    for (const Move& mv : moves_)
        if (!mv.to_ni && !mv.drop) keep(mv.dst_router);
    active_.swap(scratch_);
}

void XpipesNetwork::eval() {
    any_activity_ = false;
    for (MasterNi& ni : masters_) eval_master_ni(ni);
    for (SlaveNi& ni : slaves_) eval_slave_ni(ni);
    if (flits_active_ > 0) eval_routers();
    // Injection starts on VC0 of the protocol plane (request plane index
    // 0, response plane index vc_count_); with one VC these are the
    // original planes 0 and 1.
    for (MasterNi& ni : masters_) inject(ni.tx, ni.node, lm_port_, 0);
    for (SlaveNi& ni : slaves_) inject(ni.tx, ni.node, ls_port_, vc_count_);
    if (any_activity_) ++stats_.busy_cycles;
}

u64 XpipesNetwork::contention_cycles() const {
    u64 total = 0;
    for (const u64 w : stats_.master_wait_cycles) total += w;
    return total;
}

} // namespace tgsim::ic
