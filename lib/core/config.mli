(** How a session executes: policy, I/O cost model, fuel, world setup,
    machine shape, tracing and tracking backend — the policy SHIFT sets
    in software, kept apart from the tracking mechanism.

    {!Session.start} reads it, and a {!Snapshot.t} stores it whole, so
    {!Session.restore} resumes under the configuration the session was
    started with.  Every field but [setup] is serialised; a restored
    session never runs [setup], whose effects are already part of the
    captured world and memory. *)

(** Machine shape for the run. *)
type threading =
  | Single  (** one hart; [sys_spawn] fails with [-1] *)
  | Threads of { quantum : int option }
      (** SMP round robin; [quantum] instructions per turn
          (default 50).  The guest may call [sys_spawn(&f, arg)] and
          [sys_join(tid)] (the paper's future work, §4.4, §8); harts
          share memory, and with it the taint bitmap, whose
          unserialised updates are the documented hazard (see
          test/test_smp.ml).  The report's counters aggregate every
          hart ({!Shift_machine.Stats.concurrent}: events sum, cycles
          are the slowest hart's). *)
  | Processes of { quantum : int option; comm : string option }
      (** multi-process OS personality ({!Shift_os.Process}):
          [sys_fork]/[sys_exec]/[sys_wait]/[sys_pipe] live, each
          process in a private address space with its own taint
          bitmap and provenance shadow.  [quantum] instructions per
          scheduler turn (default 50); [comm] names pid 1 (default
          ["main"]).  Incompatible with the [Coproc] backend, which
          binds a single address space. *)

type t = {
  policy : Shift_policy.Policy.t;  (** policies to enforce *)
  io_cost : Shift_os.World.io_cost;  (** syscall cycle-cost model *)
  fuel : int;  (** total instruction budget for the session *)
  setup : Shift_os.World.t -> unit;
      (** populate files / network requests before execution *)
  threading : threading;  (** machine shape *)
  trace : Shift_machine.Flowtrace.options option;
      (** [Some opts] attaches a {!Shift_machine.Flowtrace} to the
          run: provenance is tracked, events land in the ring, sink
          alerts carry chains, and the report gains a [flow]
          summary.  [None] (the default) costs one branch per
          instrumented op. *)
  hwtrace : bool;
      (** record the cache-set observation trace on the primary hart
          ({!Shift_machine.Hwtrace}): one entry per guest load/store
          naming the L1D set it touched.  Off by default (one branch
          per cache access); the leak detector ({!Leak}) turns it
          on.  The buffer itself is never snapshotted — a restored
          session records from the restore point on. *)
  superblocks : bool;
      (** whether hot guest regions may be compiled to closure chains
          ({!Shift_machine.Superblock}).  On (the default) and off are
          observationally identical — same counters, alerts, traces
          and snapshots — so [false] is an escape hatch for
          differential testing and debugging, not a semantic knob. *)
  backend : Shift_tracking.Backend.t;
      (** taint-tracking backend ({!Shift_tracking.Backend.Nat} by
          default — the paper's on-core scheme, byte-identical to the
          pre-backend repository).  [Coproc] runs the uninstrumented
          guest next to a decoupled tag coprocessor with an async tag
          queue; [Off] is the uninstrumented baseline with sources and
          checks disabled.  Pair non-nat backends with
          {!Session.effective_mode} when compiling by name. *)
  images : (string * Shift_compiler.Image.t) list;
      (** auxiliary images the guest may [sys_exec] by name
          (multi-process sessions only); compile them with the same
          mode/backend as the main image *)
  coproc_capacity : int option;
  coproc_drain_rate : int option;
  coproc_stall_penalty : int option;
      (** tag-coprocessor queue knobs ([None] = the
          {!Shift_tracking.Tracking} model defaults); only meaningful
          under [Backend.Coproc] *)
}

val default : t
(** Default policy and I/O costs, 2e9 fuel, no setup, single hart,
    no tracing, superblocks on, nat backend, no aux images. *)

val make :
  ?policy:Shift_policy.Policy.t ->
  ?io_cost:Shift_os.World.io_cost ->
  ?fuel:int ->
  ?setup:(Shift_os.World.t -> unit) ->
  ?threading:threading ->
  ?trace:Shift_machine.Flowtrace.options ->
  ?hwtrace:bool ->
  ?superblocks:bool ->
  ?backend:Shift_tracking.Backend.t ->
  ?images:(string * Shift_compiler.Image.t) list ->
  ?coproc_capacity:int ->
  ?coproc_drain_rate:int ->
  ?coproc_stall_penalty:int ->
  unit ->
  t
(** {!default} with the given fields overridden. *)
