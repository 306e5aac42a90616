#include "schemes/scheme_registry.hh"

#include <cctype>

#include "common/logging.hh"
#include "schemes/registration.hh"

namespace eqx {

namespace {

std::string
lowered(std::string_view s)
{
    std::string out(s);
    for (char &c : out)
        c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    return out;
}

} // namespace

SchemeRegistry &
SchemeRegistry::instance()
{
    static SchemeRegistry reg = [] {
        SchemeRegistry r;
        registerSingleSchemes(r);
        registerCmeshSchemes(r);
        registerSeparateBaseSchemes(r);
        registerDa2MeshSchemes(r);
        registerMultiPortSchemes(r);
        registerEquiNoxSchemes(r);
        registerEquiNoxXySchemes(r);
        registerTopologyVariantSchemes(r);
        return r;
    }();
    return reg;
}

bool
SchemeRegistry::add(std::unique_ptr<SchemeModel> model)
{
    std::vector<std::string> keys;
    keys.push_back(lowered(model->name()));
    for (const auto &a : model->aliases())
        keys.push_back(lowered(a));
    for (const auto &k : keys)
        if (byKey_.count(k))
            return false;
    if (auto e = model->legacyEnum(); e && byEnum_.count(*e))
        return false;

    const SchemeModel *m = model.get();
    owned_.push_back(std::move(model));
    order_.push_back(m);
    for (const auto &k : keys)
        byKey_[k] = m;
    if (auto e = m->legacyEnum())
        byEnum_[*e] = m;
    return true;
}

const SchemeModel *
SchemeRegistry::find(std::string_view key) const
{
    auto it = byKey_.find(lowered(key));
    return it == byKey_.end() ? nullptr : it->second;
}

const SchemeModel &
SchemeRegistry::byName(std::string_view key) const
{
    const SchemeModel *m = find(key);
    if (!m)
        eqx_fatal("unknown scheme '", std::string(key),
                  "'; registered schemes: ", keyList());
    return *m;
}

const SchemeModel &
SchemeRegistry::byEnum(Scheme s) const
{
    auto it = byEnum_.find(s);
    if (it == byEnum_.end())
        eqx_fatal("no scheme model registered for enum value ",
                  static_cast<int>(s));
    return *it->second;
}

std::vector<std::string>
SchemeRegistry::names() const
{
    std::vector<std::string> out;
    for (const SchemeModel *m : order_)
        out.push_back(m->name());
    return out;
}

std::string
SchemeRegistry::keyList() const
{
    std::string out;
    for (const SchemeModel *m : order_) {
        if (!out.empty())
            out += ", ";
        out += m->name();
    }
    return out;
}

std::vector<std::string>
paperSchemeNames()
{
    std::vector<std::string> out;
    for (const SchemeModel *m : SchemeRegistry::instance().models())
        if (m->legacyEnum())
            out.push_back(m->name());
    return out;
}

std::vector<std::string>
allSchemeNames()
{
    return SchemeRegistry::instance().names();
}

// ---- legacy sim/scheme.hh helpers, now registry lookups ----

const char *
schemeName(Scheme s)
{
    return SchemeRegistry::instance().byEnum(s).name();
}

} // namespace eqx
