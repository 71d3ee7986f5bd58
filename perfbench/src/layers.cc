#include "layers.hh"

#include <algorithm>
#include <map>

#include "common/json.hh"

namespace perfbench
{

double
nowS()
{
    static const Clock::time_point origin = Clock::now();
    return std::chrono::duration<double>(Clock::now() - origin).count();
}

double
clockOverheadNs()
{
    static const double overhead = [] {
        std::vector<std::int64_t> d(4001);
        for (std::int64_t &x : d) {
            Clock::time_point t0 = Clock::now();
            x = std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - t0).count();
        }
        std::nth_element(d.begin(), d.begin() + d.size() / 2, d.end());
        return static_cast<double>(d[d.size() / 2]);
    }();
    return overhead;
}

double
CallStat::estNs() const
{
    if (timed == 0)
        return 0.0;
    double mean = static_cast<double>(timedNs) / static_cast<double>(timed);
    return std::max(0.0, mean - clockOverheadNs()) *
        static_cast<double>(calls);
}

void
CallStat::add(const CallStat &other)
{
    calls += other.calls;
    timed += other.timed;
    timedNs += other.timedNs;
}

double
LayerCalls::mitigNs() const
{
    return safe.estNs() + act.estNs() + tick.estNs();
}

void
LayerCalls::add(const LayerCalls &other)
{
    safe.add(other.safe);
    act.add(other.act);
    tick.add(other.tick);
    next.add(other.next);
}

TracedMitigation::TracedMitigation(std::unique_ptr<bh::Mitigation> inner_mech,
                                   LayerCalls &calls)
    : inner(std::move(inner_mech)), counts(calls)
{
}

void
TracedMitigation::setController(bh::MemController *mc)
{
    Mitigation::setController(mc);
    inner->setController(mc);
}

void
TracedMitigation::syncStats()
{
    inner->syncStats();
    // The whole set is copied, histograms included (BlockHammer
    // publishes its delay histograms here), so the decorated lane's
    // stats export is byte-identical to the bare mechanism's.
    stats = inner->stats;
}

int
SpanLog::begin(const std::string &name, int parent)
{
    double t = nowS();
    std::lock_guard<std::mutex> lock(mtx);
    Span s;
    s.name = name;
    s.id = static_cast<int>(log.size());
    s.parent = parent;
    s.startS = t;
    s.endS = t;
    log.push_back(s);
    return s.id;
}

void
SpanLog::end(int id)
{
    double t = nowS();
    std::lock_guard<std::mutex> lock(mtx);
    log.at(static_cast<std::size_t>(id)).endS = t;
}

std::vector<Span>
SpanLog::spans() const
{
    std::lock_guard<std::mutex> lock(mtx);
    return log;
}

std::string
SpanLog::chromeJson() const
{
    std::vector<Span> all = spans();
    // Row of a span: the id of its ancestor just below the root, so
    // each cell (and its phases) gets a row of its own.
    std::map<int, int> row;
    for (const Span &s : all) {
        if (s.parent < 0)
            row[s.id] = s.id;
        else if (all[static_cast<std::size_t>(s.parent)].parent < 0)
            row[s.id] = s.id;
        else
            row[s.id] = row[s.parent];
    }
    bh::Json events = bh::Json::array();
    for (const Span &s : all) {
        bh::Json e = bh::Json::object();
        e["name"] = s.name;
        e["ph"] = "X";
        e["ts"] = s.startS * 1e6;
        e["dur"] = s.durS() * 1e6;
        e["pid"] = 1;
        e["tid"] = row[s.id];
        bh::Json args = bh::Json::object();
        args["id"] = s.id;
        args["parent"] = s.parent;
        e["args"] = args;
        events.push(std::move(e));
    }
    bh::Json doc = bh::Json::object();
    doc["traceEvents"] = std::move(events);
    return doc.dump(1) + "\n";
}

} // namespace perfbench
