/**
 * @file
 * Compile-checked field lists for plain config aggregates.
 *
 * DARCO_FIELD_LIST(Type, a, b) defines forEachField(cfg, f), which
 * calls f("a", cfg.a) then f("b", cfg.b) on a const or mutable Type.
 * Its first statement is a structured binding over the whole
 * aggregate, so a member added to Type without a name here fails to
 * compile ("only 2 names provided for structured binding"). The
 * labels are stringized from the same tokens, so they cannot drift
 * from the bindings. Binding is positional: list in declaration
 * order.
 */

#ifndef DARCO_COMMON_FIELDS_HH
#define DARCO_COMMON_FIELDS_HH

#include <algorithm>
#include <concepts>
#include <string_view>
#include <type_traits>

namespace darco::common {

/** f(name, member) per member; names is the stringized list. */
template <typename F, typename... Members>
void
visitFields(std::string_view names, F &&f, Members &...members)
{
    const auto next = [&names] {
        names.remove_prefix(names.find_first_not_of(' '));
        const std::string_view name = names.substr(0, names.find(','));
        names.remove_prefix(std::min(names.size(), name.size() + 1));
        return name;
    };
    (f(next(), members), ...);
}

} // namespace darco::common

#define DARCO_FIELD_LIST(Type, ...)                                    \
    template <typename Config, typename F>                             \
        requires std::same_as<std::remove_const_t<Config>, Type>       \
    void                                                               \
    forEachField(Config &config, F &&f)                                \
    {                                                                  \
        auto &[__VA_ARGS__] = config;                                  \
        ::darco::common::visitFields(#__VA_ARGS__, f, __VA_ARGS__);    \
    }

#endif // DARCO_COMMON_FIELDS_HH
