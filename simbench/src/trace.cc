#include "trace.hh"

#include <algorithm>
#include <cstdio>

#include "common.hh"

namespace simbench
{

int
Tracer::begin(const char *name)
{
    if (!on)
        return -1;
    Span span;
    span.name = name;
    span.parent = stack.empty() ? -1 : stack.back();
    span.startNs = nowNs();
    all.push_back(std::move(span));
    stack.push_back(int(all.size() - 1));
    return stack.back();
}

void
Tracer::end(int index)
{
    if (index < 0)
        return;
    all[size_t(index)].endNs = nowNs();
    // Spans close in LIFO order (ScopedSpan); pop through `index`.
    while (!stack.empty()) {
        int top = stack.back();
        stack.pop_back();
        if (top == index)
            break;
    }
}

int
Tracer::addSpan(const std::string &name, int64_t startNs,
                int64_t endNs, unsigned lane, int parent)
{
    if (!on)
        return -1;
    Span span;
    span.name = name;
    span.startNs = startNs;
    span.endNs = endNs;
    span.parent = parent;
    span.lane = lane;
    all.push_back(std::move(span));
    return int(all.size() - 1);
}

std::map<std::string, Tracer::SelfTime>
Tracer::selfTimes() const
{
    std::vector<int64_t> childNs(all.size(), 0);
    for (const Span &span : all) {
        if (span.parent >= 0)
            childNs[size_t(span.parent)] += span.endNs - span.startNs;
    }
    std::map<std::string, SelfTime> out;
    for (size_t i = 0; i < all.size(); i++) {
        SelfTime &entry = out[all[i].name];
        entry.selfNs += all[i].endNs - all[i].startNs - childNs[i];
        entry.count++;
    }
    return out;
}

double
Tracer::selfSeconds(const std::string &name) const
{
    auto times = selfTimes();
    auto it = times.find(name);
    return it == times.end() ? 0.0 : double(it->second.selfNs) / 1e9;
}

bool
Tracer::writeChrome(const std::string &path) const
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (!out)
        return false;
    int64_t origin = all.empty() ? 0 : all.front().startNs;
    for (const Span &span : all)
        origin = std::min(origin, span.startNs);
    std::fprintf(out, "{\"traceEvents\":[\n");
    for (size_t i = 0; i < all.size(); i++) {
        const Span &span = all[i];
        std::string layer = span.name.substr(0, span.name.find('.'));
        std::fprintf(out,
                     "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                     "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"id\":%zu,\"parent\":%d}}%s\n",
                     span.name.c_str(), layer.c_str(), span.lane,
                     double(span.startNs - origin) / 1e3,
                     double(span.endNs - span.startNs) / 1e3, i,
                     span.parent, i + 1 < all.size() ? "," : "");
    }
    std::fprintf(out, "],\"displayTimeUnit\":\"ms\"}\n");
    return std::fclose(out) == 0;
}

} // namespace simbench
