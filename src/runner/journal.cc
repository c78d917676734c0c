#include "runner/journal.hh"

#include <string_view>
#include <type_traits>

#include "common/logging.hh"
#include "runner/snapshot_codec.hh"

namespace darco::runner {

namespace {

template <typename T>
concept HasFieldList = requires(const T &v) {
    forEachField(v, [](std::string_view, const auto &) {});
};

/**
 * Append "key=value;" for one field. Config sections flatten into
 * their members; a cache geometry is one "a/b/c/d/e" value.
 */
template <typename T>
void
dumpField(std::string &dump, std::string_view key, const T &value)
{
    if constexpr (std::is_same_v<T, timing::CacheGeometry>) {
        char sep = '=';
        dump += key;
        forEachField(value, [&](std::string_view, uint32_t member) {
            dump += sep + std::to_string(member);
            sep = '/';
        });
        dump += ';';
    } else if constexpr (HasFieldList<T>) {
        forEachField(value, [&](std::string_view k, const auto &member) {
            dumpField(dump, k, member);
        });
    } else {
        static_assert(std::is_arithmetic_v<T>);
        dump += key;
        dump += std::is_floating_point_v<T>
            ? strprintf("=%.17g;", static_cast<double>(value))
            : strprintf("=%llu;", static_cast<unsigned long long>(value));
    }
}

} // namespace

uint64_t
configFingerprint(const sim::MetricsOptions &effective,
                  const std::string &workload, bool requireHalt)
{
    std::string dump;
    dump.reserve(1024);
    // The workload string first (length-prefixed so a crafted
    // workload cannot alias into the field dump).
    dump += strprintf("workload[%zu]=", workload.size());
    dump += workload;
    dump += ';';
    dumpField(dump, "requireHalt", requireHalt);
    dumpField(dump, "", effective);
    return codec::hashString(dump);
}

} // namespace darco::runner
