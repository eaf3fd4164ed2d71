#include "analytic/analytic.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "platform/platform.hpp"

namespace tgsim::analytic {

namespace {

// Router ports, identical to the cycle model's (ic/xpipes): the two local
// NI ports sit after the four mesh/torus neighbour ports. Requests eject
// through LS, responses through LM; neighbour ports carry both planes (on
// separate virtual-network FIFOs, so per-plane port capacity is 1
// flit/cycle). Table topologies are outside the validity envelope
// (supports() rejects them), so the port count here is always 4 + 2.
constexpr int kLocalMaster = 4;
constexpr int kLocalSlave = 5;
constexpr int kNumPorts = 6;

/// Fraction of the 1 flit/cycle link bandwidth a round-robin wormhole mesh
/// sustains before head-of-line blocking collapses it. The classic rule of
/// thumb for wormhole XY meshes is 60-80% of channel capacity; the value is
/// a calibration constant, not a physical law (docs/analytic.md).
constexpr double kChannelCap = 0.72;

/// Utilisation cap for slave-NI service stations (a single server with
/// deterministic-ish service, so it degrades later than shared links).
constexpr double kStationCap = 0.95;

/// M/D/1 waiting-time clamp: past this utilisation the closed form blows
/// up; the saturation bound (not the delay term) governs there.
constexpr double kRhoMax = 0.97;

/// M/D/1 mean wait for a server with service time `service` at utilisation
/// `rho`: rho * service / (2 * (1 - rho)).
[[nodiscard]] double md1_wait(double rho, double service) noexcept {
    rho = std::min(rho, kRhoMax);
    if (rho <= 0.0) return 0.0;
    return rho * service / (2.0 * (1.0 - rho));
}

/// Geometry of one candidate mesh, resolved exactly like
/// platform::Platform::build_fabric (auto width = ceil(sqrt(nodes))).
struct Mesh {
    u32 width = 0;
    u32 height = 0;
    [[nodiscard]] u32 nodes() const noexcept { return width * height; }
};

[[nodiscard]] Mesh resolve_mesh(const ic::XpipesConfig& xc, u32 n_cores) {
    Mesh m{xc.width, xc.height};
    if (m.width == 0 || m.height == 0) {
        const u32 nodes = platform::xpipes_nodes_needed(n_cores);
        m.width = static_cast<u32>(
            std::ceil(std::sqrt(static_cast<double>(nodes))));
        m.height = platform::xpipes_height_for(n_cores, m.width);
    }
    return m;
}

/// Walks the topology's deterministic route node -> dest, invoking
/// fn(node, out_port) for every router output port the packet claims (one
/// per router traversed, ejection port included). On the mesh this visits
/// the exact (node, port) sequence of the pre-abstraction XY walk, so the
/// floating-point accumulation order — and every screening score — stays
/// bit-identical across the refactor.
template <typename Fn>
void walk(const ic::Topology& topo, u32 node, u32 dest, int eject, Fn&& fn) {
    for (;;) {
        const int port = topo.route(node, dest);
        if (port < 0) {
            fn(node, eject);
            return;
        }
        fn(node, port);
        node = topo.link(node, port)->node;
    }
}

[[nodiscard]] sweep::SweepResult setup_error(const sweep::Candidate& cand,
                                             u32 index, std::string msg) {
    sweep::SweepResult r;
    r.name = cand.name;
    r.fabric = sweep::describe_fabric(cand.cfg);
    r.index = index;
    r.analytic = true;
    r.error = std::move(msg);
    r.failure = sweep::FailureKind::SetupError;
    return r;
}

} // namespace

bool Evaluator::supports(const sweep::Candidate& cand) noexcept {
    // Fault-enabled candidates fall back to cycle simulation: the analytic
    // model has no notion of drops, retries or stall back-pressure, and the
    // screening tier must not rank what it cannot predict. Table-routed
    // graphs are cycle-only for the same reason — the M/D/1 contention
    // model is calibrated for the regular mesh/torus channel structure, not
    // arbitrary-degree routers behind the bubble rule (docs/analytic.md).
    return cand.cfg.ic == platform::IcKind::Xpipes &&
           cand.cfg.xpipes.topology != ic::TopologyKind::Table &&
           !cand.cfg.xpipes.fault.enabled();
}

Evaluator::Evaluator(const tg::PatternConfig& pattern) : pattern_(pattern) {
    tg::validate(pattern_);
    n_cores_ = pattern_.width * pattern_.height;

    // Traffic mix (identical draws to StochasticTg: burst_fraction of
    // transactions carry burst_len beats, the rest one).
    read_fraction_ = pattern_.read_fraction;
    mean_beats_ = (1.0 - pattern_.burst_fraction) +
                  pattern_.burst_fraction * pattern_.burst_len;
    // Request packets: Head + Tail (+ one Payload per write beat); writes
    // are posted, so only reads produce a response packet (Head + one
    // Payload per beat + Tail) — exactly the cycle NI's packetization.
    req_flits_mean_ = 2.0 + (1.0 - read_fraction_) * mean_beats_;
    resp_flits_mean_ = read_fraction_ * (2.0 + mean_beats_);

    // Normalized flow matrix: prob sums to 1 over all flows, i.e. each
    // entry is the fraction of ALL transactions (per cycle, per unit
    // per-core rate the whole grid offers n_cores * rate of them).
    for (u32 src = 0; src < n_cores_; ++src) {
        const auto dests = tg::pattern_dest_weights(pattern_, src);
        u64 total = 0;
        for (const auto& dw : dests) total += std::max<u32>(1, dw.weight);
        for (const auto& dw : dests) {
            Flow f;
            f.src = static_cast<u16>(src);
            f.dest = static_cast<u16>(dw.dest);
            f.prob = static_cast<double>(std::max<u32>(1, dw.weight)) /
                     (static_cast<double>(total) *
                      static_cast<double>(n_cores_));
            flows_.push_back(f);
        }
    }
}

sweep::SweepResult Evaluator::evaluate(const sweep::Candidate& cand,
                                       u32 index) const {
    Workspace ws;
    return evaluate(cand, index, ws);
}

void Evaluator::build_geometry(ic::TopologyKind kind, u32 width, u32 height,
                               Workspace& ws) const {
    const std::unique_ptr<ic::Topology> topo =
        ic::make_topology(kind, width, height, nullptr);
    const std::size_t nodes = topo->node_count();
    const std::size_t ports = nodes * kNumPorts;
    ws.req_load.assign(ports, 0.0);
    ws.resp_load.assign(ports, 0.0);
    ws.slave_load.assign(nodes, 0.0);
    ws.req_wait.assign(ports, 0.0);
    ws.resp_wait.assign(ports, 0.0);
    ws.req_pweight.assign(ports, 0.0);
    ws.resp_pweight.assign(ports, 0.0);
    ws.slave_pweight.assign(nodes, 0.0);
    ws.req_path.clear();
    ws.resp_path.clear();
    ws.req_off.clear();
    ws.resp_off.clear();
    ws.dist.clear();
    ws.req_off.reserve(flows_.size() + 1);
    ws.resp_off.reserve(flows_.size() + 1);
    ws.dist.reserve(flows_.size());
    ws.req_off.push_back(0);
    ws.resp_off.push_back(0);

    const double slave_service = mean_beats_ + 2.0;
    for (const Flow& f : flows_) {
        // Aggregate grid rate is n_cores * r; each flow carries prob of it,
        // i.e. n_cores * prob per unit per-core rate.
        const double txn_rate = f.prob * static_cast<double>(n_cores_);
        const std::size_t req_begin = ws.req_path.size();
        walk(*topo, f.src, f.dest, kLocalSlave, [&](u32 node, int port) {
            const u32 p = node * kNumPorts + static_cast<u32>(port);
            ws.req_load[p] += txn_rate * req_flits_mean_;
            ws.req_pweight[p] += f.prob;
            ws.req_path.push_back(p);
        });
        ws.req_off.push_back(static_cast<u32>(ws.req_path.size()));
        if (resp_flits_mean_ > 0.0)
            // resp_flits_mean_ folds in the read fraction: only reads
            // produce a response packet, so the plane's load per
            // transaction is fr * (2 + beats), not the per-packet flits.
            walk(*topo, f.dest, f.src, kLocalMaster, [&](u32 node, int port) {
                const u32 p = node * kNumPorts + static_cast<u32>(port);
                ws.resp_load[p] += txn_rate * resp_flits_mean_;
                ws.resp_pweight[p] += f.prob;
                ws.resp_path.push_back(p);
            });
        ws.resp_off.push_back(static_cast<u32>(ws.resp_path.size()));
        ws.slave_load[f.dest] += txn_rate * slave_service;
        ws.slave_pweight[f.dest] += f.prob;
        // Route hop count (links traversed): the request walk claims one
        // port per router plus the ejection port, so hops = ports - 1.
        // Equals the Manhattan distance on the mesh, the minimal wrapped
        // distance on the torus.
        ws.dist.push_back(
            static_cast<double>(ws.req_path.size() - req_begin - 1));
    }
    ws.mean_dist = 0.0;
    for (std::size_t fi = 0; fi < flows_.size(); ++fi)
        ws.mean_dist += flows_[fi].prob * ws.dist[fi];

    ws.max_link = 0.0; // flits/cycle per unit rate on the hottest port
    for (std::size_t i = 0; i < ports; ++i)
        ws.max_link =
            std::max(ws.max_link, std::max(ws.req_load[i], ws.resp_load[i]));
    ws.max_slave = 0.0;
    for (const double s : ws.slave_load)
        ws.max_slave = std::max(ws.max_slave, s);

    ws.owner = this;
    ws.width = width;
    ws.height = height;
    ws.topology = kind;
}

sweep::SweepResult Evaluator::evaluate(const sweep::Candidate& cand,
                                       u32 index, Workspace& ws) const {
    if (!supports(cand))
        return setup_error(
            cand, index,
            "analytic: unsupported fabric (xpipes mesh/torus only)");
    if (cand.cfg.xpipes.fifo_depth < 2)
        return setup_error(cand, index,
                           "analytic: fifo_depth must be >= 2");
    const Mesh mesh = resolve_mesh(cand.cfg.xpipes, n_cores_);
    // The platform places core/private-memory i on node i and the shared
    // memory + semaphore bank on the two nodes after them; a mesh that
    // cannot host them all throws at Platform construction, and the
    // analytic tier must reject it identically (deterministic funnels).
    if (mesh.nodes() < platform::xpipes_nodes_needed(n_cores_))
        return setup_error(cand, index,
                           "analytic: mesh too small for cores + shared "
                           "slaves (node out of range)");

    const double rate = tg::offered_rate(pattern_, cand.source);
    // Open-loop sources sit inside the model's validity envelope only up to
    // the saturation bound: below it the offered rate IS the carried rate,
    // so the closed-loop fixed point is bypassed entirely; above it the
    // pending queue grows without bound and the M/D/1 delay terms have no
    // steady state — the prediction pins at the saturation cap and the
    // cycle tier owns the divergent region (docs/analytic.md).
    const bool open = cand.source.open();

    sweep::SweepResult r;
    r.name = cand.name;
    r.fabric = sweep::describe_fabric(cand.cfg);
    r.index = index;
    r.analytic = true;
    r.offered_rate = rate;

    // --- geometry cache: loads, paths and bounds per fabric shape --------
    // A screening grid sweeps rate and FIFO depth far more often than
    // fabric shape, so the path walks and load accumulation amortize to
    // ~zero.
    const ic::TopologyKind topology = cand.cfg.xpipes.topology;
    if (ws.owner != this || ws.width != mesh.width ||
        ws.height != mesh.height || ws.topology != topology)
        build_geometry(topology, mesh.width, mesh.height, ws);
    const std::size_t ports = ws.req_load.size();

    // Slave NI service per request packet: drive beats at one per cycle
    // plus command issue / memory turnaround.
    const double slave_service = mean_beats_ + 2.0;

    const double sat_link =
        ws.max_link > 0.0 ? kChannelCap / ws.max_link : 1.0;
    const double sat_slave =
        ws.max_slave > 0.0 ? kStationCap / ws.max_slave : 1.0;
    // Source NI serialization: the NI injects one flit per cycle.
    const double sat_inject = 1.0 / req_flits_mean_;
    const double saturation =
        std::min(std::min(sat_link, sat_slave), sat_inject);
    r.predicted_saturation = saturation;

    // --- fixed point: accepted rate <-> queueing delay ------------------
    // The generators are closed-loop (one outstanding transaction, next gap
    // drawn after completion): per-core inter-departure time is mean gap
    // (1/r, floor 1 cycle) plus the mean source service time, which for
    // reads is the whole queue-inflated round trip. Accepted load in turn
    // sets the port utilisations the queueing terms read, so iterate the
    // pair to a fixed point (converges in a handful of rounds — service
    // times are monotone in rate and bounded by the saturation cap).
    // Each iteration is O(ports), not O(flows x path length): the mean
    // path wait is linear in the per-port waits, so it collapses to a dot
    // product with the cached flow-probability port weights. The per-flow
    // paths are only re-walked once, after convergence, for the tail
    // envelope (lat_worst).
    const double mean_gap = std::max(1.0, 1.0 / rate);
    double accepted = std::min(rate, saturation);
    double lat_req_mean = 0.0;
    double lat_resp_mean = 0.0;
    for (int iter = 0; iter < 6; ++iter) {
        double wait_req_mean = 0.0;
        for (std::size_t i = 0; i < ports; ++i) {
            const double w = md1_wait(accepted * ws.req_load[i], 1.0);
            ws.req_wait[i] = w;
            wait_req_mean += w * ws.req_pweight[i];
        }
        double wait_resp_mean = 0.0;
        double wait_slave_mean = 0.0;
        if (read_fraction_ > 0.0) {
            for (std::size_t i = 0; i < ports; ++i) {
                const double w = md1_wait(accepted * ws.resp_load[i], 1.0);
                ws.resp_wait[i] = w;
                wait_resp_mean += w * ws.resp_pweight[i];
            }
            for (std::size_t n = 0; n < ws.slave_load.size(); ++n)
                wait_slave_mean += ws.slave_pweight[n] *
                                   md1_wait(accepted * ws.slave_load[n],
                                            slave_service);
        }
        // Tail delivery at the far NI: one cycle per link traversed plus
        // head-to-tail serialization (wormhole pipelining overlaps the
        // rest; calibrated against the cycle model's stamps).
        lat_req_mean = ws.mean_dist + req_flits_mean_ + wait_req_mean;
        lat_resp_mean =
            read_fraction_ > 0.0
                ? ws.mean_dist + (2.0 + mean_beats_) + wait_resp_mean
                : 0.0;
        // Open loop: the source never throttles, so the carried rate stays
        // pinned at min(offered, saturation) — the latencies above are
        // already evaluated at that utilisation and no fixed point exists
        // to iterate.
        if (open) break;
        // Closed-loop source service: writes are posted (complete once the
        // NI absorbed the beats); reads block for the whole round trip.
        const double s_read =
            lat_req_mean + wait_slave_mean + slave_service + lat_resp_mean;
        const double s_write = mean_beats_ + 1.0;
        const double src_service = read_fraction_ * s_read +
                                   (1.0 - read_fraction_) * s_write;
        const double closed_loop = 1.0 / (mean_gap + src_service);
        const double next = std::min(closed_loop, saturation);
        // Exact fixed point: every later iteration would recompute the
        // same latencies and the same update, so stopping is safe (and
        // saturation-pinned candidates converge immediately).
        if (next == accepted) break;
        accepted = next;
    }

    // Tail envelope: worst zero-load-plus-queueing flow at the converged
    // waits — the only quantity that still needs the per-flow paths.
    double lat_worst = 0.0;
    for (std::size_t fi = 0; fi < flows_.size(); ++fi) {
        const double dist = ws.dist[fi];
        double wait_req = 0.0;
        for (u32 p = ws.req_off[fi]; p < ws.req_off[fi + 1]; ++p)
            wait_req += ws.req_wait[ws.req_path[p]];
        const double t_req = dist + req_flits_mean_ + wait_req;
        double t_resp = 0.0;
        if (read_fraction_ > 0.0) {
            double wait_resp = 0.0;
            for (u32 p = ws.resp_off[fi]; p < ws.resp_off[fi + 1]; ++p)
                wait_resp += ws.resp_wait[ws.resp_path[p]];
            t_resp = dist + (2.0 + mean_beats_) + wait_resp;
        }
        lat_worst = std::max(lat_worst, std::max(t_req, t_resp));
    }

    // --- fold into the cycle-path result shape --------------------------
    r.completed = true;
    r.checks_ok = true;
    r.has_latency = true;
    r.accepted_rate = accepted;
    const double n_req_packets =
        static_cast<double>(pattern_.packets_per_core) *
        static_cast<double>(n_cores_);
    r.packets = static_cast<u64>(n_req_packets);
    // Every transaction delivers one request packet and (reads only) one
    // response packet; both are latency-sampled at Tail delivery.
    const double sample_weight = 1.0 + read_fraction_;
    r.lat_count = static_cast<u64>(n_req_packets * sample_weight);
    r.lat_mean = (lat_req_mean + lat_resp_mean) / sample_weight;
    r.lat_p50 = static_cast<u64>(r.lat_mean);
    // Crude tail envelope: the worst zero-plus-queueing flow, inflated for
    // the waiting-time variance M/D/1 hides. Screening needs ranks, not
    // calibrated percentiles (docs/analytic.md).
    r.lat_p99 = static_cast<u64>(std::ceil(lat_worst * 1.5));
    r.lat_max = static_cast<u64>(std::ceil(lat_worst * 2.5));

    // Predicted completion: every core must retire packets_per_core
    // transactions at the accepted per-core rate, plus the drain of the
    // last packets in flight. This is the funnel's ranking score.
    const double completion =
        static_cast<double>(pattern_.packets_per_core) / accepted + r.lat_mean;
    r.cycles = static_cast<Cycle>(std::llround(completion));
    return r;
}

double spearman_rho(const std::vector<double>& a, const std::vector<double>& b) {
    const std::size_t n = a.size();
    if (n != b.size() || n < 2) return 0.0;

    // Average-rank assignment (ties share the mean of their rank span).
    const auto ranks = [n](const std::vector<double>& v) {
        std::vector<std::size_t> order(n);
        std::iota(order.begin(), order.end(), std::size_t{0});
        std::sort(order.begin(), order.end(),
                  [&](std::size_t x, std::size_t y) { return v[x] < v[y]; });
        std::vector<double> out(n, 0.0);
        std::size_t i = 0;
        while (i < n) {
            std::size_t j = i;
            while (j + 1 < n && v[order[j + 1]] == v[order[i]]) ++j;
            const double rank =
                (static_cast<double>(i) + static_cast<double>(j)) / 2.0 + 1.0;
            for (std::size_t k = i; k <= j; ++k) out[order[k]] = rank;
            i = j + 1;
        }
        return out;
    };
    const std::vector<double> ra = ranks(a);
    const std::vector<double> rb = ranks(b);

    // Pearson correlation over the rank vectors (exact under ties).
    double ma = 0.0, mb = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        ma += ra[i];
        mb += rb[i];
    }
    ma /= static_cast<double>(n);
    mb /= static_cast<double>(n);
    double cov = 0.0, va = 0.0, vb = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double da = ra[i] - ma;
        const double db = rb[i] - mb;
        cov += da * db;
        va += da * da;
        vb += db * db;
    }
    if (va <= 0.0 || vb <= 0.0) return 0.0;
    return cov / std::sqrt(va * vb);
}

} // namespace tgsim::analytic
