(** The public entry point: compile a guest program, run it under a
    policy, and report what happened.

    {[
      let report =
        Session.exec
          ~config:
            (Session.Config.make ~policy:Shift_policy.Policy.default
               ~setup:(fun world -> Shift_os.World.queue_request world payload)
               ())
          (Session.build ~mode:Shift_compiler.Mode.shift_word my_program)
    ]}

    Every run goes through one {!Config.t}-driven engine: {!start}
    builds a {!live} session around {!Shift_machine.Exec.run_for},
    {!advance} drives it in bounded slices, and {!exec} runs it to
    completion.  Because the engine suspends between instruction groups
    without touching machine state, counters are byte-identical however
    a run is sliced. *)

(** How a session executes: policy, I/O cost model, fuel, world setup,
    machine shape, tracing and backend (see {!Config}). *)
module Config = Config

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

type image_cache
(** Built images, one per program and build key, for an owner that
    runs the same programs again (an attack case holds one).  A program
    is identified physically; the key is everything else {!build} reads:
    the effective mode, whether taint markers are kept, [options],
    [taint_returns] and [with_runtime].  Safe to share across domains. *)

val image_cache : unit -> image_cache
(** An empty cache. *)

val build :
  ?cache:image_cache ->
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
    With [cache], a repeat build returns the first image built for its
    key — the same value, shared with its code and warm blocks
    ({!Shift_compiler.Image.code}) — so the cache lives as long as its
    owner and holds at most one image per key and program.
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
    fuel budget, {!report}. *)

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
