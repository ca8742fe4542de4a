(** The standard job catalogue for [shiftc serve].

    Maps the wire protocol's names — kernels from
    {!Shift_workloads.Spec}, attack cases from {!Shift_attacks.Attacks}
    — to {!Shift.Fleet.job}s whose configurations mirror the one-shot
    CLI commands {e exactly}: a [run] job uses the same policy, setup
    and fuel as [shiftc run], an [attack] job the same as
    [shiftc attack], and a [batch] job list the same as [shiftc batch].
    That mirroring is what makes the CI determinism gate sound: the
    served report JSON is [cmp]-equal to the solo command's.

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
    session under variant [i]'s input.  Every variant starts from the
    case's cached image ({!Shift_attacks.Attack_case.image}), shared with
    every other detection and run of the case under the same mode and
    backend.  [Error]
    if the name is unknown or the case carries no variants.  [shiftc leak], the serve [leak]
    job and the sidechannel experiment all build their sessions here,
    so their observations cannot drift. *)

val standard : Shift.Serve.catalog
(** The catalogue over the SPEC-like kernel suite and the Table-2
    attack cases.  Resolvers return [Error msg] (listing the known
    names) for anything the suites don't contain. *)
