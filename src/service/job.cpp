#include "service/job.hpp"

#include <sstream>
#include <stdexcept>

#include "chaos/gameday.hpp"
#include "chaos/scenario.hpp"
#include "chaos/scenario_file.hpp"
#include "core/json.hpp"
#include "core/scenario.hpp"
#include "impl/harness.hpp"
#include "impl/registry.hpp"
#include "plan/ir.hpp"

namespace advect::service {

namespace json = core::json;

void JobSpec::validate() const {
    const std::string origin = "job";
    if (tenant.empty())
        json::bad_key(origin, "tenant", "required (a non-empty string)");
    if (n < 4) json::bad_key(origin, "n", "expected an integer >= 4");
    if (steps < 1) json::bad_key(origin, "steps", "expected a positive integer");
    if (ranks < 1) json::bad_key(origin, "ranks", "expected a positive integer");
    if (threads < 1)
        json::bad_key(origin, "threads", "expected a positive integer");
    if (fuse < 1) json::bad_key(origin, "fuse", "expected a positive integer");
    if (block_x < 1 || block_y < 1)
        json::bad_key(origin, "block_x/block_y",
                      "expected positive integers");
    if (deadline_s < 0.0)
        json::bad_key(origin, "deadline_s", "expected a non-negative number");
    try {
        (void)impl::find_implementation(impl);
    } catch (const std::exception& e) {
        json::bad_key(origin, "impl", e.what());
    }
    if (!scenario.empty()) {
        try {
            (void)core::scenario_by_name(scenario);
        } catch (const std::exception& e) {
            json::bad_key(origin, "scenario", e.what());
        }
    }
    // Resolve the chaos plan now so a bad name/file rejects at admission,
    // not at dispatch.
    try {
        (void)fault_plan();
    } catch (const std::exception& e) {
        json::bad_key(origin, "chaos", e.what());
    }
    // Lay the job out as the launcher will, so a spec no launcher can run
    // (a fuse the problem or the rank boxes cannot carry, a geometry that
    // leaves a rank no GPU block) rejects at admission, not at dispatch.
    try {
        (void)impl::plan_job(impl, solver_config());
    } catch (const plan::FuseGeometryError& e) {
        json::bad_key(origin, "fuse", e.what());
    } catch (const std::exception& e) {
        json::bad_key(origin, "n/ranks", e.what());
    }
}

impl::SolverConfig JobSpec::solver_config() const {
    impl::SolverConfig cfg;
    cfg.problem = core::AdvectionProblem::standard(n);
    cfg.steps = steps;
    cfg.ntasks = ranks;
    cfg.threads_per_task = threads;
    cfg.fuse = fuse;
    cfg.block_x = block_x;
    cfg.block_y = block_y;
    if (!scenario.empty()) {
        cfg.problem.scenario = core::scenario_by_name(scenario);
        // standard(n) picks nu at the constant-velocity stability limit;
        // variable-coefficient scenarios see a larger max |c|, so rescale to
        // a safe Courant fraction (same policy as `advectctl launch`).
        if (!cfg.problem.constant_coefficients())
            cfg.problem.nu = 0.5 / cfg.problem.velocity_field().max_abs();
    }
    return cfg;
}

std::optional<chaos::FaultPlan> JobSpec::fault_plan() const {
    if (chaos.empty()) return std::nullopt;
    if (chaos.rfind("gameday-", 0) == 0)
        return chaos::game_day_by_name(chaos).plan;
    if (chaos.size() > 5 &&
        chaos.compare(chaos.size() - 5, 5, ".json") == 0)
        return chaos::load_plan_file(chaos);
    return chaos::scenario_by_name(chaos, chaos_x, chaos_seed);
}

std::string JobSpec::key() const {
    std::ostringstream os;
    os << impl << '|' << n << '|' << steps << '|' << ranks << '|' << threads
       << '|' << fuse << '|' << block_x << 'x' << block_y << '|'
       << impl::transport_name(transport) << '|' << scenario << '|' << chaos;
    if (!chaos.empty()) os << '@' << chaos_x << '/' << chaos_seed;
    os << '|' << (return_state ? "state" : "nostate");
    return os.str();
}

JobSpec job_from_json(const std::string& text, const std::string& origin) {
    const json::Value doc = json::parse(text, origin);
    if (doc.kind != json::Value::Kind::Object)
        throw std::invalid_argument(origin + ": expected a JSON object");
    JobSpec spec;
    for (const auto& [key, v] : doc.members) {
        if (key == "tenant")
            spec.tenant = json::require_string(v, origin, key);
        else if (key == "priority")
            spec.priority = json::require_int(v, origin, key);
        else if (key == "deadline_s")
            spec.deadline_s = json::require_number(v, origin, key);
        else if (key == "impl")
            spec.impl = json::require_string(v, origin, key);
        else if (key == "n")
            spec.n = json::require_int(v, origin, key);
        else if (key == "steps")
            spec.steps = json::require_int(v, origin, key);
        else if (key == "ranks")
            spec.ranks = json::require_int(v, origin, key);
        else if (key == "threads")
            spec.threads = json::require_int(v, origin, key);
        else if (key == "fuse")
            spec.fuse = json::require_int(v, origin, key);
        else if (key == "block_x")
            spec.block_x = json::require_int(v, origin, key);
        else if (key == "block_y")
            spec.block_y = json::require_int(v, origin, key);
        else if (key == "transport") {
            const std::string& name = json::require_string(v, origin, key);
            try {
                spec.transport = impl::transport_from_name(name);
            } catch (const std::exception& e) {
                json::bad_key(origin, key, e.what());
            }
        } else if (key == "scenario")
            spec.scenario = json::require_string(v, origin, key);
        else if (key == "chaos")
            spec.chaos = json::require_string(v, origin, key);
        else if (key == "chaos_x")
            spec.chaos_x = json::require_number(v, origin, key);
        else if (key == "chaos_seed")
            spec.chaos_seed = json::require_u64(v, origin, key);
        else if (key == "return_state")
            spec.return_state = json::require_bool(v, origin, key);
        else
            json::bad_key(origin, key, "unknown key");
    }
    spec.validate();
    return spec;
}

std::string job_to_json(const JobSpec& spec) {
    json::Value doc = json::Value::object();
    doc.set("tenant", json::Value::string(spec.tenant));
    doc.set("priority", json::Value::number(spec.priority));
    doc.set("deadline_s", json::Value::number(spec.deadline_s));
    doc.set("impl", json::Value::string(spec.impl));
    doc.set("n", json::Value::number(spec.n));
    doc.set("steps", json::Value::number(spec.steps));
    doc.set("ranks", json::Value::number(spec.ranks));
    doc.set("threads", json::Value::number(spec.threads));
    doc.set("fuse", json::Value::number(spec.fuse));
    doc.set("block_x", json::Value::number(spec.block_x));
    doc.set("block_y", json::Value::number(spec.block_y));
    doc.set("transport",
            json::Value::string(impl::transport_name(spec.transport)));
    doc.set("scenario", json::Value::string(spec.scenario));
    doc.set("chaos", json::Value::string(spec.chaos));
    doc.set("chaos_x", json::Value::number(spec.chaos_x));
    doc.set("chaos_seed",
            json::Value::number(static_cast<double>(spec.chaos_seed)));
    doc.set("return_state", json::Value::boolean(spec.return_state));
    return json::dump(doc, 0);
}

}  // namespace advect::service
