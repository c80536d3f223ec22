#include "refs.hh"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>

#include "common/rng.hh"

namespace simbench
{

using wir::i32;
using wir::u32;

namespace
{

using Words = std::vector<u32>;

float
f(u32 bits)
{
    return wir::asFloat(bits);
}

std::string
where(const char *what, unsigned i)
{
    return std::string(what) + " element " + std::to_string(i);
}

/** Float results may differ from the interpreter by contraction of
 * multiply-adds, so they are compared with a small relative
 * tolerance; integer results must match exactly. */
bool
nearF(u32 gotBits, float want)
{
    float tol = 1e-4f * (std::fabs(want) + 1.0f);
    return std::fabs(f(gotBits) - want) <= tol;
}

std::string
gaussianFan2(const Words &in, const Words &out)
{
    constexpr unsigned n = 160, k = 8;
    // Layout: a at word 0, m at word n*n.
    for (unsigned i = k + 1; i < n; i++) {
        float m = f(in[n * n + i]);
        for (unsigned j = 0; j < n; j++) {
            float want = f(in[i * n + j]) - m * f(in[k * n + j]);
            if (!nearF(out[i * n + j], want))
                return where("GA", i * n + j);
        }
    }
    return "";
}

std::string
pathfinder(const Words &in, const Words &out)
{
    constexpr unsigned cols = 8192, steps = 4;
    // Layout: cost [0, steps*cols), prev at steps*cols, out after.
    const u32 *cost = in.data();
    const u32 *prev = in.data() + steps * cols;
    for (unsigned g = 0; g < cols; g++) {
        u32 acc = prev[g];
        for (unsigned s = 0; s < steps; s++) {
            u32 left = prev[g == 0 ? 0 : g - 1];
            u32 right = prev[g == cols - 1 ? cols - 1 : g + 1];
            acc = std::min(std::min(left, right), acc) +
                  cost[s * cols + g];
        }
        if (out[(steps + 1) * cols + g] != acc)
            return where("PF", g);
    }
    return "";
}

std::string
sumAbsDiff(const Words &in, const Words &out)
{
    constexpr unsigned mbs = 6144, span = 8;
    const u32 *cur = in.data();
    const u32 *ref = in.data() + mbs * span;
    for (unsigned g = 0; g < mbs; g++) {
        u32 acc = 0;
        for (unsigned i = 0; i < span; i++) {
            i32 d = i32(cur[g * span + i]) - i32(ref[g * span + i]);
            acc += u32(d < 0 ? -d : d);
        }
        if (out[2 * mbs * span + g] != acc)
            return where("SD", g);
    }
    return "";
}

std::string
haarWavelet(const Words &in, const Words &out)
{
    constexpr unsigned samples = 80 * 128 * 2;
    for (unsigned g = 0; g < samples / 2; g++) {
        i32 a = i32(in[2 * g]);
        i32 b = i32(in[2 * g + 1]);
        if (out[samples + g] != u32((a + b) >> 1))
            return where("DW avg", g);
        if (out[samples + samples / 2 + g] != u32(a - b))
            return where("DW diff", g);
    }
    return "";
}

std::string
heartwall(const Words &in, const Words &out)
{
    constexpr unsigned windows = 48 * 128, wlen = 10;
    const u32 *img = in.data();
    const u32 *tpl = in.data() + windows * wlen;
    for (unsigned g = 0; g < windows; g++) {
        u32 acc = 0;
        for (unsigned i = 0; i < wlen; i++) {
            i32 d = i32(img[g * wlen + i] & 0xffff) -
                    i32(tpl[g * wlen + i] & 0xffff);
            acc += u32(d < 0 ? -d : d);
        }
        if (out[2 * windows * wlen + g] != acc)
            return where("HW", g);
    }
    return "";
}

std::string
spmv(const Words &in, const Words &out)
{
    constexpr unsigned rows = 4096, nnzPerRow = 8;
    constexpr unsigned nnz = rows * nnzPerRow;
    const u32 *val = in.data();
    const u32 *col = in.data() + nnz;
    const u32 *x = in.data() + 2 * nnz;
    for (unsigned r = 0; r < rows; r++) {
        float acc = 0.0f;
        for (unsigned e = 0; e < nnzPerRow; e++) {
            unsigned idx = r * nnzPerRow + e;
            if (col[idx] >= rows)
                return where("SV column index", idx);
            acc = f(val[idx]) * f(x[col[idx]]) + acc;
        }
        if (!nearF(out[2 * nnz + rows + r], acc))
            return where("SV", r);
    }
    return "";
}

std::string
stencil(const Words &in, const Words &out)
{
    constexpr unsigned nx = 32, ny = 32, nz = 18;
    constexpr unsigned plane = nx * ny;
    // Every cell of the interior z planes; x/y neighbours wrap into
    // the adjacent row, as the kernel's flat indexing does.
    for (unsigned idx = plane; idx < plane * (nz - 1); idx++) {
        // The kernel's operation order, exactly.
        float sum = f(in[idx - 1]) + f(in[idx + 1]);
        sum = sum + f(in[idx - nx]);
        sum = sum + f(in[idx + nx]);
        sum = sum + f(in[idx - plane]);
        sum = sum + f(in[idx + plane]);
        float res = (f(in[idx]) * -6.0f + sum) * 0.1666667f;
        if (!nearF(out[plane * nz + idx], res))
            return where("ST", idx);
    }
    return "";
}

std::string
blackScholes(const Words &in, const Words &out)
{
    constexpr unsigned options = 6144;
    const u32 *sArr = in.data();
    const u32 *kArr = in.data() + options;
    const u32 *tArr = in.data() + 2 * options;
    for (unsigned g = 0; g < options; g++) {
        float s = f(sArr[g]), k = f(kArr[g]), t = f(tArr[g]);
        float ln = std::log2(s * (1.0f / k)) * 0.6931472f;
        float num = ln + t * 0.145f;
        float vol = std::sqrt(t) * 0.3f;
        float d1 = num * (1.0f / vol);
        float cnd = 1.0f / (std::exp2(d1 * -3.32f) + 1.0f);
        float call = s * cnd + k * -0.45f;
        if (!nearF(out[3 * options + g], call))
            return where("BS", g);
    }
    return "";
}

std::string
kmeans(const Words &in, const Words &out)
{
    constexpr unsigned points = 3072, features = 8, clusters = 5;
    // Centroids live in const memory; regenerate them the way the
    // factory seeds them.
    wir::Rng rng(0x6a0e);
    float centroids[clusters * features];
    for (auto &c : centroids)
        c = rng.nextFloat();

    unsigned disagreed = 0;
    for (unsigned p = 0; p < points; p++) {
        float best = 1.0e30f;
        u32 bestIdx = 0;
        for (unsigned c = 0; c < clusters; c++) {
            float dist = 0.0f;
            for (unsigned fe = 0; fe < features; fe++) {
                float d = f(in[fe * points + p]) -
                          centroids[c * features + fe];
                dist = d * d + dist;
            }
            if (dist < best) {
                best = dist;
                bestIdx = c;
            }
        }
        disagreed += out[points * features + p] != bestIdx;
    }
    // Contraction can flip near-ties between two centroids; allow a
    // handful in the whole data set, not a systematic difference.
    if (disagreed > points / 200)
        return "KM: " + std::to_string(disagreed) +
               " points assigned to a different centroid";
    return "";
}

std::string
btree(const Words &in, const Words &out)
{
    constexpr unsigned fanout = 8, levels = 4, queries = 6144;
    constexpr unsigned nodes =
        1 + fanout + fanout * fanout + fanout * fanout * fanout;
    const u32 *keys = in.data();
    const u32 *qs = in.data() + nodes * fanout;
    for (unsigned q = 0; q < queries; q++) {
        u32 key = qs[q] * 21;
        u32 node = 0;
        for (unsigned level = 0; level + 1 < levels; level++) {
            u32 slot = 0;
            for (unsigned k = 0; k < fanout; k++)
                slot += keys[node * fanout + k] <= key;
            node = node * fanout + std::min(slot, fanout - 1) + 1;
        }
        if (out[nodes * fanout + queries + q] != node)
            return where("BT", q);
    }
    return "";
}

struct Reference
{
    /** Words of global memory the check reads, input and output. */
    size_t words;
    std::function<std::string(const Words &, const Words &)> check;
};

const std::map<std::string, Reference> &
references()
{
    static const std::map<std::string, Reference> table = {
        {"GA", {160 * 160 + 160, gaussianFan2}},
        {"PF", {6 * 8192, pathfinder}},
        {"SD", {2 * 6144 * 8 + 6144, sumAbsDiff}},
        {"DW", {2 * 80 * 128 * 2, haarWavelet}},
        {"HW", {2 * 48 * 128 * 10 + 48 * 128, heartwall}},
        {"SV", {2 * 4096 * 8 + 2 * 4096, spmv}},
        {"ST", {2 * 32 * 32 * 18, stencil}},
        {"BS", {4 * 6144, blackScholes}},
        {"KM", {3072 * 8 + 3072, kmeans}},
        {"BT", {585 * 8 + 2 * 6144, btree}},
    };
    return table;
}

} // namespace

bool
hasReference(const std::string &abbr)
{
    return references().count(abbr) != 0;
}

std::string
checkReference(const std::string &abbr, const std::vector<u32> &input,
               const std::vector<u32> &output)
{
    const Reference &ref = references().at(abbr);
    if (input.size() < ref.words || output.size() < ref.words)
        return abbr + ": global memory smaller than the reference "
                      "layout";
    return ref.check(input, output);
}

} // namespace simbench
