#include "serve/protocol.hpp"

#include <utility>

namespace aal {

namespace {

struct OpName {
  ServeOp op;
  const char* name;
};

constexpr OpName kOpNames[] = {
    {ServeOp::kHello, "hello"},       {ServeOp::kSubmit, "submit"},
    {ServeOp::kStatus, "status"},     {ServeOp::kCancel, "cancel"},
    {ServeOp::kList, "list"},         {ServeOp::kStream, "stream"},
    {ServeOp::kStats, "stats"},       {ServeOp::kShutdown, "shutdown"},
};

struct CodeName {
  ServeErrorCode code;
  const char* name;
};

constexpr CodeName kCodeNames[] = {
    {ServeErrorCode::kParseError, "parse_error"},
    {ServeErrorCode::kBadRequest, "bad_request"},
    {ServeErrorCode::kUnknownOp, "unknown_op"},
    {ServeErrorCode::kVersionMismatch, "version_mismatch"},
    {ServeErrorCode::kUnknownJob, "unknown_job"},
    {ServeErrorCode::kQuotaExceeded, "quota_exceeded"},
    {ServeErrorCode::kQueueFull, "queue_full"},
    {ServeErrorCode::kBadModel, "bad_model"},
    {ServeErrorCode::kBadTarget, "bad_target"},
    {ServeErrorCode::kBadTuner, "bad_tuner"},
    {ServeErrorCode::kShuttingDown, "shutting_down"},
    {ServeErrorCode::kInternalError, "internal_error"},
    {ServeErrorCode::kLineTooLong, "line_too_long"},
};

std::int64_t expect_int(const TraceField& f) {
  if (f.value.kind() != TraceValue::Kind::kInt) {
    throw ServeError(ServeErrorCode::kBadRequest,
                     "field \"" + f.key + "\" must be an integer");
  }
  return f.value.as_int();
}

const std::string& expect_string(const TraceField& f) {
  if (f.value.kind() != TraceValue::Kind::kString) {
    throw ServeError(ServeErrorCode::kBadRequest,
                     "field \"" + f.key + "\" must be a string");
  }
  return f.value.as_string();
}

bool expect_bool(const TraceField& f) {
  if (f.value.kind() != TraceValue::Kind::kBool) {
    throw ServeError(ServeErrorCode::kBadRequest,
                     "field \"" + f.key + "\" must be a boolean");
  }
  return f.value.as_bool();
}

}  // namespace

const char* serve_op_name(ServeOp op) {
  for (const OpName& o : kOpNames) {
    if (o.op == op) return o.name;
  }
  return "unknown";
}

std::optional<ServeOp> serve_op_from_name(std::string_view name) {
  for (const OpName& o : kOpNames) {
    if (name == o.name) return o.op;
  }
  return std::nullopt;
}

const char* serve_error_code_name(ServeErrorCode code) {
  for (const CodeName& c : kCodeNames) {
    if (c.code == code) return c.name;
  }
  return "internal_error";
}

std::optional<ServeErrorCode> serve_error_code_from_name(
    std::string_view name) {
  for (const CodeName& c : kCodeNames) {
    if (name == c.name) return c.code;
  }
  return std::nullopt;
}

std::vector<TraceField> JobSpec::to_fields() const {
  std::vector<TraceField> fields = {
      {"model", TraceValue(model)},
      {"target", TraceValue(target)},
      {"tuner", TraceValue(tuner)},
      {"budget", TraceValue(budget)},
      {"early_stop", TraceValue(early_stop)},
      {"seed", TraceValue(seed)},
      {"tenant", TraceValue(tenant)},
      {"priority", TraceValue(priority)},
  };
  // Optional additive fields (aaltune-serve/v1 unchanged): omitted when at
  // their defaults so pre-transfer and pre-template clients and pinned wire
  // examples still see byte-identical canonical lines.
  if (transfer) fields.push_back({"transfer", TraceValue(true)});
  if (!schedule_template.empty()) {
    fields.push_back({"template", TraceValue(schedule_template)});
  }
  return fields;
}

void JobSpec::validate() const {
  if (model.empty()) {
    throw ServeError(ServeErrorCode::kBadRequest,
                     "submit requires a non-empty \"model\"");
  }
  if (budget < 1) {
    throw ServeError(ServeErrorCode::kBadRequest, "\"budget\" must be >= 1");
  }
  if (early_stop < 0) {
    throw ServeError(ServeErrorCode::kBadRequest,
                     "\"early_stop\" must be >= 0");
  }
  if (seed < 0) {
    throw ServeError(ServeErrorCode::kBadRequest, "\"seed\" must be >= 0");
  }
  if (tenant.empty()) {
    throw ServeError(ServeErrorCode::kBadRequest,
                     "\"tenant\" must be non-empty");
  }
}

std::string ServeRequest::to_line() const {
  std::vector<TraceField> fields;
  fields.push_back({"id", TraceValue(id)});
  fields.push_back({"op", TraceValue(serve_op_name(op))});
  if (op == ServeOp::kHello) {
    fields.push_back(
        {"version",
         TraceValue(version.empty() ? kServeProtocolVersion : version)});
  } else if (!version.empty()) {
    fields.push_back({"version", TraceValue(version)});
  }
  switch (op) {
    case ServeOp::kSubmit: {
      for (TraceField& f : spec.to_fields()) fields.push_back(std::move(f));
      break;
    }
    case ServeOp::kStatus:
    case ServeOp::kCancel:
      fields.push_back({"job", TraceValue(job)});
      break;
    case ServeOp::kStream:
      fields.push_back({"job", TraceValue(job)});
      fields.push_back({"from", TraceValue(from)});
      break;
    case ServeOp::kHello:
    case ServeOp::kList:
    case ServeOp::kStats:
    case ServeOp::kShutdown:
      break;
  }
  return to_json_object_line(fields);
}

ServeRequest ServeRequest::parse(std::string_view line,
                                 std::int64_t* id_out) {
  std::vector<TraceField> fields;
  try {
    fields = fields_from_json_object_line(line);
  } catch (const std::exception& e) {
    throw ServeError(ServeErrorCode::kParseError, e.what());
  }
  if (fields.empty() || fields[0].key != "id" ||
      fields[0].value.kind() != TraceValue::Kind::kInt) {
    throw ServeError(ServeErrorCode::kBadRequest,
                     "request must start with an integer \"id\" field");
  }
  ServeRequest req;
  req.id = fields[0].value.as_int();
  if (id_out != nullptr) *id_out = req.id;
  if (req.id < 0) {
    throw ServeError(ServeErrorCode::kBadRequest, "\"id\" must be >= 0");
  }
  if (fields.size() < 2 || fields[1].key != "op" ||
      fields[1].value.kind() != TraceValue::Kind::kString) {
    throw ServeError(ServeErrorCode::kBadRequest,
                     "\"id\" must be followed by a string \"op\" field");
  }
  const std::optional<ServeOp> op = serve_op_from_name(
      fields[1].value.as_string());
  if (!op.has_value()) {
    throw ServeError(ServeErrorCode::kUnknownOp,
                     "unknown op \"" + fields[1].value.as_string() + "\"");
  }
  req.op = *op;

  bool saw_job = false;
  for (std::size_t i = 2; i < fields.size(); ++i) {
    const TraceField& f = fields[i];
    if (f.key == "version") {
      req.version = expect_string(f);
      continue;
    }
    switch (req.op) {
      case ServeOp::kSubmit:
        if (f.key == "model") { req.spec.model = expect_string(f); continue; }
        if (f.key == "target") { req.spec.target = expect_string(f); continue; }
        if (f.key == "tuner") { req.spec.tuner = expect_string(f); continue; }
        if (f.key == "budget") { req.spec.budget = expect_int(f); continue; }
        if (f.key == "early_stop") {
          req.spec.early_stop = expect_int(f);
          continue;
        }
        if (f.key == "seed") { req.spec.seed = expect_int(f); continue; }
        if (f.key == "tenant") { req.spec.tenant = expect_string(f); continue; }
        if (f.key == "priority") {
          req.spec.priority = expect_int(f);
          continue;
        }
        if (f.key == "transfer") {
          req.spec.transfer = expect_bool(f);
          continue;
        }
        if (f.key == "template") {
          req.spec.schedule_template = expect_string(f);
          continue;
        }
        break;
      case ServeOp::kStatus:
      case ServeOp::kCancel:
        if (f.key == "job") { req.job = expect_int(f); saw_job = true;
          continue; }
        break;
      case ServeOp::kStream:
        if (f.key == "job") { req.job = expect_int(f); saw_job = true;
          continue; }
        if (f.key == "from") { req.from = expect_int(f); continue; }
        break;
      case ServeOp::kHello:
      case ServeOp::kList:
      case ServeOp::kStats:
      case ServeOp::kShutdown:
        break;
    }
    throw ServeError(ServeErrorCode::kBadRequest,
                     "op \"" + std::string(serve_op_name(req.op)) +
                         "\" does not take a \"" + f.key + "\" field");
  }

  if (!req.version.empty() && req.version != kServeProtocolVersion) {
    throw ServeError(ServeErrorCode::kVersionMismatch,
                     "server speaks " + std::string(kServeProtocolVersion) +
                         ", client sent \"" + req.version + "\"");
  }
  switch (req.op) {
    case ServeOp::kSubmit:
      req.spec.validate();
      break;
    case ServeOp::kStatus:
    case ServeOp::kCancel:
    case ServeOp::kStream:
      if (!saw_job || req.job < 0) {
        throw ServeError(ServeErrorCode::kBadRequest,
                         "op \"" + std::string(serve_op_name(req.op)) +
                             "\" requires a \"job\" field >= 0");
      }
      if (req.from < 0) {
        throw ServeError(ServeErrorCode::kBadRequest,
                         "\"from\" must be >= 0");
      }
      break;
    case ServeOp::kHello:
    case ServeOp::kList:
    case ServeOp::kStats:
    case ServeOp::kShutdown:
      break;
  }
  return req;
}

const TraceValue* ServeResponse::find(std::string_view key) const {
  for (const TraceField& f : fields) {
    if (f.key == key) return &f.value;
  }
  return nullptr;
}

ServeResponse ServeResponse::parse(std::string_view line) {
  std::vector<TraceField> fields = fields_from_json_object_line(line);
  AAL_CHECK(fields.size() >= 2 && fields[0].key == "id" &&
                fields[0].value.kind() == TraceValue::Kind::kInt &&
                fields[1].key == "ok" &&
                fields[1].value.kind() == TraceValue::Kind::kBool,
            "response must start with integer \"id\" and bool \"ok\": "
                << line);
  ServeResponse resp;
  resp.id = fields[0].value.as_int();
  resp.ok = fields[1].value.as_bool();
  resp.fields.assign(fields.begin() + 2, fields.end());
  if (!resp.ok) {
    const TraceValue* code = resp.find("error");
    const TraceValue* message = resp.find("message");
    AAL_CHECK(code != nullptr &&
                  code->kind() == TraceValue::Kind::kString &&
                  message != nullptr &&
                  message->kind() == TraceValue::Kind::kString,
              "error response must carry string \"error\" and \"message\": "
                  << line);
    const auto parsed = serve_error_code_from_name(code->as_string());
    AAL_CHECK(parsed.has_value(),
              "unknown error code '" << code->as_string() << "'");
    resp.error = *parsed;
    resp.message = message->as_string();
  }
  if (const TraceValue* frame = resp.find("frame");
      frame != nullptr && frame->kind() == TraceValue::Kind::kString) {
    resp.frame = frame->as_string();
  }
  return resp;
}

std::string serve_ok_line(std::int64_t id,
                          const std::vector<TraceField>& fields) {
  std::vector<TraceField> all;
  all.reserve(fields.size() + 2);
  all.push_back({"id", TraceValue(id)});
  all.push_back({"ok", TraceValue(true)});
  for (const TraceField& f : fields) all.push_back(f);
  return to_json_object_line(all);
}

std::string serve_error_line(std::int64_t id, ServeErrorCode code,
                             const std::string& message) {
  return to_json_object_line({
      {"id", TraceValue(id)},
      {"ok", TraceValue(false)},
      {"error", TraceValue(serve_error_code_name(code))},
      {"message", TraceValue(message)},
  });
}

}  // namespace aal
