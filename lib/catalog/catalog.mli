(** The standard job catalogue: the one place where a request's names
    and options become sessions.

    Resolves the wire protocol's names — kernels from
    {!Shift_workloads.Spec}, attack cases from {!Shift_attacks.Attacks}
    — to the work a {!Shift.Protocol.request} runs.  [shiftc serve]
    and [shiftc]'s one-shot commands ([run], [attack], [trace],
    [batch], [leak]) all resolve their request here and run what comes
    back, so a served report is byte-identical to the solo command's by
    construction; the CI [cmp] steps keep checking slicing, migration
    and the wire.

    Lives outside [lib/core] because the core library cannot depend on
    the workload and attack suites. *)

val leak_start :
  ?superblocks:bool ->
  ?backend:Shift_tracking.Backend.t ->
  mode:Shift_compiler.Mode.t ->
  string ->
  (int -> Shift.Session.live, string) result
(** The variant starter {!Shift.Leak.detect} consumes, for a named
    side-channel case: [start i] begins a flow-traced, hardware-traced
    session under variant [i]'s input.  The detector switches Flowtrace
    off for its observation pass and reads it only when it re-runs a
    diverging pair; [shiftc leak --trace-out] exports [start 0] as
    configured, with its [tainted_by] marks.  Every variant starts from
    the case's cached image ({!Shift_attacks.Attack_case.image}), shared
    with every other detection and run of the case under the same mode
    and backend.  [Error] if the name is unknown or the case carries no
    variants.  The [leak] request, the sidechannel experiment and the
    benchmark all build their sessions here, so their observations
    cannot drift. *)

val standard : Shift.Serve.catalog
(** The catalogue over the SPEC-like kernel suite and every case
    {!Shift_attacks.Attacks.find} resolves.  [Error msg] (listing the
    known names) for anything the suites don't contain, and for a
    multi-process case under the [coproc] backend, whose tag pipeline
    tracks a single address space. *)
