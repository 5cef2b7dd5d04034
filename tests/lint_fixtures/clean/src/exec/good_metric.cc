// Clean fixture: metric and span names that match the registry tables in
// docs/OBSERVABILITY.md exactly, through every macro form (including the
// named-variable span variant whose name is the SECOND argument, and one
// metric per entry of an X-macro list).

#define DEMO_COUNTERS(X)                     \
  /* A comment spanning lines, as the       \
     entries of common/counters.h carry. */ \
  X(alpha, "first documented counter")       \
  X(beta, "second documented counter")

namespace demo {
void Run() {
  OVC_METRIC_COUNTER("demo.metric", "documented counter").Increment();
  OVC_TRACE_SPAN_VAR(span, "demo.span");
#define DEMO_RECORD(field, help) \
  OVC_METRIC_COUNTER("demo." #field, help).Increment();
  DEMO_COUNTERS(DEMO_RECORD)
#undef DEMO_RECORD
}
}  // namespace demo
