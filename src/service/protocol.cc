#include "service/protocol.h"

#include <stdexcept>

namespace cirfix::service {

const char *
jobStateName(JobState s)
{
    switch (s) {
      case JobState::Queued: return "queued";
      case JobState::Running: return "running";
      case JobState::Done: return "done";
      case JobState::Canceled: return "canceled";
      case JobState::Failed: return "failed";
    }
    return "?";
}

JobState
jobStateFromName(const std::string &name)
{
    for (JobState s : {JobState::Queued, JobState::Running,
                       JobState::Done, JobState::Canceled,
                       JobState::Failed})
        if (name == jobStateName(s))
            return s;
    throw std::runtime_error("unknown job state '" + name + "'");
}

Json
toJson(const JobSpec &spec)
{
    Json j = Json::object();
    j["design"] = spec.designSource;
    j["tb"] = spec.tbModule;
    j["dut"] = spec.dutModule;
    if (!spec.oracleCsv.empty())
        j["oracle_csv"] = spec.oracleCsv;
    if (!spec.goldenSource.empty())
        j["golden"] = spec.goldenSource;
    j["priority"] = spec.priority;
    Json p = Json::object();
    p["pop"] = spec.params.popSize;
    p["gens"] = spec.params.maxGenerations;
    p["budget_seconds"] = spec.params.maxSeconds;
    p["seed"] = static_cast<long long>(spec.params.seed);
    p["threads"] = spec.params.numThreads;
    p["phi"] = spec.params.phi;
    p["eval_deadline"] = spec.params.evalDeadlineSeconds;
    p["eval_mem_budget"] =
        static_cast<long long>(spec.params.evalMemoryBudget);
    p["islands"] = spec.params.islands;
    p["migration_interval"] = spec.params.migrationInterval;
    p["migrants"] = spec.params.migrantsPerIsland;
    j["params"] = std::move(p);
    return j;
}

JobSpec
jobSpecFromJson(const Json &j)
{
    if (!j.isObject())
        throw std::runtime_error("job spec must be an object");
    JobSpec spec;
    spec.designSource = j.str("design");
    spec.tbModule = j.str("tb");
    spec.dutModule = j.str("dut");
    spec.oracleCsv = j.str("oracle_csv");
    spec.goldenSource = j.str("golden");
    spec.priority = static_cast<int>(j.num("priority", 0));
    if (const Json *p = j.find("params")) {
        JobParams d;  // defaults
        spec.params.popSize = static_cast<int>(p->num("pop", d.popSize));
        spec.params.maxGenerations =
            static_cast<int>(p->num("gens", d.maxGenerations));
        spec.params.maxSeconds =
            p->real("budget_seconds", d.maxSeconds);
        spec.params.seed = static_cast<uint64_t>(
            p->num("seed", static_cast<int64_t>(d.seed)));
        spec.params.numThreads =
            static_cast<int>(p->num("threads", d.numThreads));
        spec.params.phi = p->real("phi", d.phi);
        spec.params.evalDeadlineSeconds =
            p->real("eval_deadline", d.evalDeadlineSeconds);
        spec.params.evalMemoryBudget = static_cast<uint64_t>(p->num(
            "eval_mem_budget",
            static_cast<int64_t>(d.evalMemoryBudget)));
        spec.params.islands =
            static_cast<int>(p->num("islands", d.islands));
        spec.params.migrationInterval = static_cast<int>(
            p->num("migration_interval", d.migrationInterval));
        spec.params.migrantsPerIsland =
            static_cast<int>(p->num("migrants", d.migrantsPerIsland));
    }
    checkJobSpec(spec);
    return spec;
}

void
checkJobSpec(const JobSpec &spec)
{
    if (spec.designSource.empty())
        throw std::runtime_error("job spec missing 'design'");
    if (spec.tbModule.empty())
        throw std::runtime_error("job spec missing 'tb'");
    if (spec.dutModule.empty())
        throw std::runtime_error("job spec missing 'dut'");
    if (spec.oracleCsv.empty() == spec.goldenSource.empty())
        throw std::runtime_error(
            "job spec needs exactly one of 'oracle_csv' / 'golden'");
    if (spec.params.popSize < 1 || spec.params.maxGenerations < 0 ||
        spec.params.maxSeconds <= 0)
        throw std::runtime_error("job spec has nonsensical GP bounds");
    if (spec.params.islands < 1 ||
        (spec.params.islands > 1 &&
         (spec.params.migrationInterval < 1 ||
          spec.params.migrantsPerIsland < 0)))
        throw std::runtime_error(
            "job spec has nonsensical island parameters");
}

Json
makeHello()
{
    Json j = Json::object();
    j["type"] = "hello";
    j["version"] = kProtocolVersion;
    return j;
}

Json
makeWorkerHello(const std::string &workerName)
{
    Json j = makeHello();
    j["role"] = "worker";
    j["name"] = workerName;
    return j;
}

Json
makeError(const std::string &code, const std::string &message)
{
    Json j = Json::object();
    j["type"] = "error";
    j["code"] = code;
    j["message"] = message;
    return j;
}

std::string
packEnvelope(const Json &doc, const std::string &bytes)
{
    std::string out = doc.dump();
    if (!bytes.empty()) {
        out.reserve(out.size() + 1 + bytes.size());
        out += '\0';
        out += bytes;
    }
    return out;
}

Json
unpackEnvelope(const std::string &payload, std::string *bytes)
{
    size_t nul = payload.find('\0');
    if (nul == std::string::npos) {
        bytes->clear();
        return Json::parse(payload);
    }
    bytes->assign(payload, nul + 1);
    return Json::parse(payload.substr(0, nul));
}

bool
checkHello(const Json &msg, std::string *why, std::string *role,
           std::string *workerName)
{
    if (!msg.isObject() || msg.str("type") != "hello") {
        if (why)
            *why = "expected a hello frame to open the connection";
        return false;
    }
    int64_t version = msg.num("version", -1);
    if (version != kProtocolVersion) {
        if (why)
            *why = "protocol version " + std::to_string(version) +
                   " is not supported (server speaks version " +
                   std::to_string(kProtocolVersion) + ")";
        return false;
    }
    std::string r = msg.str("role");
    if (r.empty())
        r = "client";
    if (r != "client" && r != "worker") {
        if (why)
            *why = "unknown hello role '" + r + "'";
        return false;
    }
    if (role)
        *role = r;
    if (workerName)
        *workerName = msg.str("name");
    return true;
}

} // namespace cirfix::service
