(** The public entry point: compile a guest program, run it under a
    policy, and report what happened.

    {[
      let report =
        Session.run ~mode:Shift_compiler.Mode.shift_word
          ~policy:Shift_policy.Policy.default
          ~setup:(fun world -> Shift_os.World.queue_request world payload)
          my_program
    ]}

    Every run — the historical [run]/[run_mt]/[run_image]/[run_image_mt]
    entry points included — goes through one {!Config.t}-driven engine:
    {!start} builds a {!live} session around
    {!Shift_machine.Exec.run_for}, {!advance} drives it in bounded
    slices, and {!exec} runs it to completion.  Because the engine
    suspends between instruction groups without touching machine state,
    counters are byte-identical however a run is sliced. *)

(** How a session executes: policy, I/O cost model, fuel, world setup,
    and threading. *)
module Config : sig
  (** Machine shape for the run. *)
  type threading =
    | Single  (** one hart; [sys_spawn] fails with [-1] *)
    | Threads of { quantum : int option }
        (** SMP round robin; [quantum] instructions per turn
            (default 50) *)
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
            {!effective_mode} when compiling by name. *)
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
end

val gran_of_mode : Shift_compiler.Mode.t -> Shift_mem.Granularity.t
(** The taint granularity a mode tracks at ([Word] for
    [Uninstrumented], whose bitmap is unused). *)

val effective_mode :
  backend:Shift_tracking.Backend.t ->
  Shift_compiler.Mode.t ->
  Shift_compiler.Mode.t
(** The compilation mode actually used under a backend: [nat] keeps the
    requested mode; [coproc] and [none] run the uninstrumented guest
    (their tracking — if any — happens off-core).  The CLI, catalog and
    bench all route through this so the backend/mode pairing cannot
    drift between entry points. *)

val build :
  ?with_runtime:bool ->
  ?options:Shift_compiler.Compile.options ->
  ?taint_returns:string list ->
  ?backend:Shift_tracking.Backend.t ->
  mode:Shift_compiler.Mode.t ->
  Ir.program ->
  Shift_compiler.Image.t
(** Compile and link.  [with_runtime] (default true) links in the
    {!Shift_runtime.Runtime} library.  The library is compiled once per
    mode, options, marker setting and the [taint_returns] entries it
    calls, memoised process-wide (safe across domains), and the image is
    byte-identical to compiling the merged program from scratch.
    [options] (default {!Shift_compiler.Compile.default_options}) selects
    the instrumentation variant.  [taint_returns] lists functions
    whose return values are taint sources (paper §3.3.1, source 4).
    [backend] (default [nat]) applies {!effective_mode} and, for the
    tag coprocessor, keeps the Orig-provenance taint markers in the
    otherwise-uninstrumented stream so the mirror sees [untaint] and
    tainted-return sources (the machine skips their NaT writes).
    @raise Shift_compiler.Compile.Error on invalid programs. *)

val load : Shift_compiler.Image.t -> Shift_machine.Cpu.t
(** Fresh machine running the image's shared code
    ({!Shift_compiler.Image.code}, warm blocks included), with the
    image's initialised data written to memory. *)

(** {1 Resumable sessions}

    The batch-session substrate: a {!live} session owns a machine, an
    OS world and a fuel budget, and is advanced in bounded slices.  A
    front end can rotate {!advance} across many live sessions to
    multiplex guests. *)

type live
(** A started session: engine, world, and remaining fuel. *)

val start : ?config:Config.t -> Shift_compiler.Image.t -> live
(** Load the image on a fresh machine and world, run the config's
    [setup], and wire the machine shape the config asks for (for
    [Threads], the SMP spawn/join hooks).  No guest instruction has
    executed yet. *)

val advance : live -> budget:int -> [ `Yielded | `Finished of Report.outcome ]
(** Execute at most [budget] instructions (clamped to the remaining
    fuel).  [`Yielded] means the slice was used up with the program
    still live; call again to resume.  Fuel exhaustion finishes with
    {!Report.Timeout}; a policy violation raised by the OS world
    finishes with {!Report.Alert}.  Once finished, further calls return
    the same outcome without executing anything. *)

val world : live -> Shift_os.World.t
(** The session's OS world (for inspecting output mid-run, or feeding
    more input between slices). *)

val engine : live -> Shift_machine.Exec.t
(** The underlying engine (for counter snapshots mid-run). *)

val outcome : live -> Report.outcome option
(** The final outcome, once {!advance} returned [`Finished]. *)

val fuel_left : live -> int
(** Instructions left in the session's budget — what a scheduler or
    status endpoint reports about a run still in flight. *)

val flowtrace : live -> Shift_machine.Flowtrace.t option
(** The session's flow trace, when the config asked for one — query it
    mid-run between slices, or after the run for events and chains. *)

val tracking : live -> Shift_tracking.Tracking.t
(** The session's tracking-backend handle.  Under [coproc] its
    {!Shift_tracking.Tracking.stats} expose queue depth, stalls and
    drain lag — host-side diagnostics, never part of reports or
    snapshots. *)

val cache_stats : live -> int * int
(** L1D [(hits, misses)] summed across harts, live at any point of the
    run (they also land in the final {!Report.t}). *)

val hwtrace : live -> Shift_machine.Hwtrace.t option
(** The primary hart's observation trace, when [Config.hwtrace] asked
    for one. *)

val superblock_stats : live -> Shift_machine.Stats.superblocks
(** Host-side superblock compiler counters aggregated across harts.
    Diagnostics only: never part of the report, the [--json] output or
    snapshots (they differ between superblocks-on and -off runs, which
    must stay byte-identical). *)

val report : live -> Report.t
(** Assemble the session's report: outcome (a session still live
    reports {!Report.Timeout}), aggregated machine counters, and
    everything the guest emitted through the world. *)

val exec : ?config:Config.t -> Shift_compiler.Image.t -> Report.t
(** Run a session to completion: {!start}, {!advance} through the whole
    fuel budget, {!report}.  This is the single implementation behind
    all four historical entry points below. *)

(** {1 Checkpoint/restore}

    A {!live} session can be frozen between {!advance} slices into a
    {!Snapshot.t} — a self-contained, serialisable image of everything
    that determines the rest of the run — and rebuilt later, in the
    same process or a fresh one.  The guarantee: a restored session run
    to completion produces a report byte-identical to the unbroken
    run's, across single-hart, SMP and traced shapes. *)

val checkpoint : ?meta:(string * string) list -> live -> Snapshot.t
(** Freeze the session's complete state.  Call only between {!advance}
    slices (never from inside a syscall handler).  [meta] is free-form
    provenance carried in the snapshot but not consumed by restore. *)

val restore : Snapshot.t -> live
(** Rebuild a live session from a snapshot: fresh machine, memory, OS
    world and (when traced) flow state, all overwritten with the
    snapshot's contents.  The configured world-setup closure is {e not}
    re-run — its effects are already part of the captured state.  The
    machines run the snapshot image's code: a snapshot taken in memory
    by {!checkpoint} resumes on the blocks its session compiled. *)

(** {1 Historical entry points}

    One-line wrappers over {!exec}, kept so no caller breaks. *)

val run_image :
  ?policy:Shift_policy.Policy.t ->
  ?io_cost:Shift_os.World.io_cost ->
  ?fuel:int ->
  ?setup:(Shift_os.World.t -> unit) ->
  ?trace:Shift_machine.Flowtrace.options ->
  ?superblocks:bool ->
  ?backend:Shift_tracking.Backend.t ->
  Shift_compiler.Image.t ->
  Report.t
(** Run a compiled image on a fresh machine and OS world.  [setup] is
    called before execution to populate files and network requests. *)

val run :
  ?with_runtime:bool ->
  ?taint_returns:string list ->
  ?policy:Shift_policy.Policy.t ->
  ?io_cost:Shift_os.World.io_cost ->
  ?fuel:int ->
  ?setup:(Shift_os.World.t -> unit) ->
  ?trace:Shift_machine.Flowtrace.options ->
  ?superblocks:bool ->
  ?backend:Shift_tracking.Backend.t ->
  mode:Shift_compiler.Mode.t ->
  Ir.program ->
  Report.t
(** [build] followed by [run_image].  When [backend] is given, the mode
    is first routed through {!effective_mode}. *)

(** {2 Multi-threaded runs}

    The paper's future-work item (§4.4, §8): guest programs may call
    [sys_spawn(&f, arg)] and [sys_join(tid)]; harts share memory — and
    with it the taint bitmap, whose unserialised updates are the
    documented hazard (see test/test_smp.ml). *)

val run_image_mt :
  ?policy:Shift_policy.Policy.t ->
  ?io_cost:Shift_os.World.io_cost ->
  ?fuel:int ->
  ?setup:(Shift_os.World.t -> unit) ->
  ?quantum:int ->
  ?superblocks:bool ->
  ?backend:Shift_tracking.Backend.t ->
  Shift_compiler.Image.t ->
  Report.t
(** Like {!run_image} with thread support enabled.  [quantum] is the
    round-robin scheduling quantum in instructions (default 50).  The
    report's counters aggregate {e all} harts
    ({!Shift_machine.Stats.concurrent}: events sum, cycles are the
    slowest hart's). *)

val run_mt :
  ?with_runtime:bool ->
  ?taint_returns:string list ->
  ?policy:Shift_policy.Policy.t ->
  ?io_cost:Shift_os.World.io_cost ->
  ?fuel:int ->
  ?setup:(Shift_os.World.t -> unit) ->
  ?quantum:int ->
  ?superblocks:bool ->
  ?backend:Shift_tracking.Backend.t ->
  mode:Shift_compiler.Mode.t ->
  Ir.program ->
  Report.t
(** [build] followed by {!run_image_mt}. *)
