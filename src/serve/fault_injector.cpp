#include "edgepcc/serve/fault_injector.h"

#include <cstdio>
#include <optional>
#include <utility>

#include "edgepcc/common/parse_number.h"
#include "edgepcc/common/trace.h"

namespace edgepcc {
namespace serve {

namespace {

/** Window membership with the same epsilon convention as frame
 *  arrivals (serve_scheduler.cpp). */
constexpr double kFaultEps = 1e-9;

bool
inWindow(const DeviceFaultEvent &event, double now_s)
{
    return now_s + kFaultEps >= event.at_s &&
           now_s < event.at_s + event.duration_s - kFaultEps;
}

Status
parseError(const std::string &detail)
{
    return invalidArgument("DeviceFaultSpec::parse: " + detail);
}

/** Reads the value of @p pair ("key=value") with finiteNumber(). */
Status
parseFinite(const std::string &pair, const std::string &value,
            double *out)
{
    const std::optional<double> num = finiteNumber(value);
    if (!num)
        return parseError("'" + pair + "' needs a finite number");
    *out = *num;
    return Status::ok();
}

/** Reads the value of @p pair with wholeNumber() into an int; the
 *  caller rejects negatives. */
Status
parseWhole(const std::string &pair, const std::string &value, int *out)
{
    const std::optional<int> num = wholeNumber<int>(value);
    if (!num)
        return parseError("'" + pair + "' needs a whole number");
    *out = *num;
    return Status::ok();
}

}  // namespace

const char *
deviceFaultKindName(DeviceFaultKind kind)
{
    switch (kind) {
      case DeviceFaultKind::kTransientStall:
        return "stall";
      case DeviceFaultKind::kThermalThrottle:
        return "throttle";
      case DeviceFaultKind::kMemoryExhaustion:
        return "oom";
      case DeviceFaultKind::kCrash:
        return "crash";
    }
    return "unknown";
}

DeviceFaultSpec
DeviceFaultSpec::none()
{
    return DeviceFaultSpec{};
}

DeviceFaultSpec
DeviceFaultSpec::crashSecondary()
{
    DeviceFaultSpec spec;
    DeviceFaultEvent crash;
    crash.kind = DeviceFaultKind::kCrash;
    crash.replica = 1;
    crash.at_s = 0.060;
    crash.duration_s = 0.0;
    spec.events.push_back(crash);
    return spec;
}

DeviceFaultSpec
DeviceFaultSpec::thermalBrownout()
{
    DeviceFaultSpec spec;
    DeviceFaultEvent throttle;
    throttle.kind = DeviceFaultKind::kThermalThrottle;
    throttle.replica = 0;
    throttle.at_s = 0.040;
    throttle.duration_s = 0.100;
    throttle.derate = 2.5;
    spec.events.push_back(throttle);
    return spec;
}

Expected<DeviceFaultSpec>
DeviceFaultSpec::parse(const std::string &text)
{
    if (text.empty() || text == "none")
        return DeviceFaultSpec::none();
    if (text == "crash-secondary")
        return DeviceFaultSpec::crashSecondary();
    if (text == "thermal-brownout")
        return DeviceFaultSpec::thermalBrownout();

    DeviceFaultSpec spec;
    std::size_t pos = 0;
    while (pos <= text.size()) {
        std::size_t semi = text.find(';', pos);
        if (semi == std::string::npos)
            semi = text.size();
        const std::string event_text = text.substr(pos, semi - pos);
        pos = semi + 1;
        if (event_text.empty())
            return parseError("empty event");

        DeviceFaultEvent event;
        bool have_kind = false;
        std::size_t field_pos = 0;
        while (field_pos <= event_text.size()) {
            std::size_t comma = event_text.find(',', field_pos);
            if (comma == std::string::npos)
                comma = event_text.size();
            const std::string pair =
                event_text.substr(field_pos, comma - field_pos);
            field_pos = comma + 1;
            const std::size_t eq = pair.find('=');
            if (eq == std::string::npos)
                return parseError("expected key=value, got '" +
                                  pair + "'");
            const std::string key = pair.substr(0, eq);
            const std::string value = pair.substr(eq + 1);
            if (key == "kind") {
                have_kind = true;
                if (value == "stall") {
                    event.kind = DeviceFaultKind::kTransientStall;
                } else if (value == "throttle") {
                    event.kind = DeviceFaultKind::kThermalThrottle;
                } else if (value == "oom") {
                    event.kind = DeviceFaultKind::kMemoryExhaustion;
                } else if (value == "crash") {
                    event.kind = DeviceFaultKind::kCrash;
                } else {
                    return parseError("unknown kind '" + value +
                                      "'");
                }
                continue;
            }
            Status parsed;
            double ms = 0.0;
            if (key == "replica") {
                parsed = parseWhole(pair, value, &event.replica);
            } else if (key == "at-ms") {
                parsed = parseFinite(pair, value, &ms);
                event.at_s = ms / 1e3;
            } else if (key == "dur-ms") {
                parsed = parseFinite(pair, value, &ms);
                event.duration_s = ms / 1e3;
            } else if (key == "derate") {
                parsed = parseFinite(pair, value, &event.derate);
            } else {
                return parseError("unknown key '" + key + "'");
            }
            EDGEPCC_RETURN_IF_ERROR(parsed);
            if (field_pos > event_text.size())
                break;
        }
        if (!have_kind)
            return parseError("event without kind= in '" +
                              event_text + "'");
        if (event.replica < 0 || event.at_s < 0.0 ||
            event.duration_s < 0.0 || event.derate <= 0.0)
            return parseError(
                "replica/at-ms/dur-ms must be >= 0 and derate > 0");
        if ((event.kind == DeviceFaultKind::kThermalThrottle ||
             event.kind == DeviceFaultKind::kMemoryExhaustion ||
             event.kind == DeviceFaultKind::kTransientStall) &&
            event.duration_s <= 0.0)
            return parseError(
                std::string(deviceFaultKindName(event.kind)) +
                " needs dur-ms > 0");
        spec.events.push_back(event);
        if (pos > text.size())
            break;
    }
    return spec;
}

std::string
DeviceFaultSpec::toString() const
{
    if (isIdle())
        return "none";
    std::string out;
    char buffer[160];
    for (const DeviceFaultEvent &event : events) {
        if (!out.empty())
            out += ';';
        (void)std::snprintf(
            buffer, sizeof buffer,
            "kind=%s,replica=%d,at-ms=%g,dur-ms=%g",
            deviceFaultKindName(event.kind), event.replica,
            event.at_s * 1e3, event.duration_s * 1e3);
        out += buffer;
        if (event.kind == DeviceFaultKind::kThermalThrottle) {
            (void)std::snprintf(buffer, sizeof buffer, ",derate=%g",
                                event.derate);
            out += buffer;
        }
    }
    return out;
}

DeviceFaultInjector::DeviceFaultInjector(DeviceFaultSpec spec)
    : spec_(std::move(spec)), consumed_(spec_.events.size(), false)
{
}

double
DeviceFaultInjector::costMultiplier(int replica, double now_s) const
{
    double factor = 1.0;
    for (const DeviceFaultEvent &event : spec_.events) {
        if (event.kind == DeviceFaultKind::kThermalThrottle &&
            event.replica == replica && inWindow(event, now_s))
            factor *= event.derate;
    }
    return factor;
}

bool
DeviceFaultInjector::memoryExhausted(int replica,
                                     double now_s) const
{
    for (const DeviceFaultEvent &event : spec_.events) {
        if (event.kind == DeviceFaultKind::kMemoryExhaustion &&
            event.replica == replica && inWindow(event, now_s))
            return true;
    }
    return false;
}

double
DeviceFaultInjector::consumeStall(int replica, double now_s)
{
    double total = 0.0;
    for (std::size_t i = 0; i < spec_.events.size(); ++i) {
        const DeviceFaultEvent &event = spec_.events[i];
        if (consumed_[i] ||
            event.kind != DeviceFaultKind::kTransientStall ||
            event.replica != replica ||
            event.at_s > now_s + kFaultEps)
            continue;
        consumed_[i] = true;
        total += event.duration_s;
    }
    return total;
}

int
DeviceFaultInjector::consumeCrash(int replica, double now_s)
{
    for (std::size_t i = 0; i < spec_.events.size(); ++i) {
        const DeviceFaultEvent &event = spec_.events[i];
        if (consumed_[i] || event.kind != DeviceFaultKind::kCrash ||
            event.replica != replica ||
            event.at_s > now_s + kFaultEps)
            continue;
        consumed_[i] = true;
        ScopedTrace trace("serve.fault_crash");
        return static_cast<int>(i);
    }
    return -1;
}

}  // namespace serve
}  // namespace edgepcc
