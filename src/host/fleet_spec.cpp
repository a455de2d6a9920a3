#include "host/fleet_spec.hpp"

#include <stdexcept>

#include "host/controller_registry.hpp"
#include "host/fleet.hpp"

namespace tmo::host
{

HostBuilder &
HostBuilder::workload(const std::string &preset,
                      std::uint64_t footprint_mb)
{
    workload::AppProfile profile;
    try {
        profile = workload::appPreset(preset, footprint_mb << 20);
    } catch (const std::invalid_argument &) {
        // Sidecar/tax presets share the vocabulary.
        profile = workload::sidecarPreset(preset, footprint_mb << 20);
    }
    AppSpec spec;
    spec.profile = std::move(profile);
    spec.useDefaultTiers = true;
    apps_.push_back(std::move(spec));
    return *this;
}

HostBuilder &
HostBuilder::controller(const std::string &name)
{
    controller_ = controllerFactoryFor(name);
    return *this;
}

std::vector<AppSpec>
HostBuilder::resolvedApps() const
{
    std::vector<AppSpec> apps = apps_;
    for (auto &app : apps) {
        // Request-serving apps inherit the builder's traffic curve;
        // background services (no offered load) keep ticking as-is.
        if (traffic_.enabled() && app.profile.offeredRps > 0.0 &&
            !app.profile.traffic.enabled())
            app.profile.traffic = traffic_;
        if (app.useDefaultTiers)
            app.tiers = defaultTiers_;
    }
    return apps;
}

Fleet
FleetSpec::build() const
{
    Fleet fleet;
    fleet.setEpoch(epoch_);
    fleet.restart_ = restart_;
    for (std::size_t i = 0; i < hosts_; ++i) {
        HostBuilder builder = proto_;
        if (builder.hostName().empty())
            builder.name(prefix_ + std::to_string(i));
        if (customize_)
            customize_(i, builder);
        fleet.addHost(builder);
    }
    return fleet;
}

} // namespace tmo::host
