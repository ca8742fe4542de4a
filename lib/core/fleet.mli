(** Batch sessions: run N independent guest sessions across domains and
    aggregate their reports deterministically — under supervision.

    Each {!job} compiles its image and runs its session inside a worker
    domain of {!Pool}; results come back in job order whatever the pool
    size, and a session is pure given its job (the simulated machine
    carries no host time or randomness), so the whole aggregate —
    including its {!to_json} serialisation — is byte-identical at any
    [?domains].  This is the substrate behind [shiftc batch], and
    {!step} drives every job the serve scheduler runs.

    {!run} is a {e supervisor}: a job whose image thunk or session
    raises is contained as a structured {!Crashed} result instead of
    tearing down the rest of the batch, a per-job [?deadline] bounds a
    runaway guest independently of its configured fuel, and [?retries]
    restarts a crashed job — from its last in-memory checkpoint when
    [?checkpoint_every] is set, from scratch otherwise. *)

type job
(** One batch unit: a named image factory plus the session config to
    run it under.  The image is built {e inside} the worker domain so
    compilation parallelises along with execution. *)

val job :
  ?config:Session.Config.t ->
  ?deadline:int ->
  name:string ->
  (unit -> Shift_compiler.Image.t) ->
  job
(** [job ~name make] with [config] defaulting to
    {!Session.Config.default}.  [deadline] caps the session's
    instruction budget at [min config.fuel deadline] — a per-job fuel
    deadline the supervisor enforces regardless of the job's own
    configuration. *)

val name : job -> string
(** The job's display name. *)

val with_deadline : int -> job -> job
(** Tighten the job's fuel deadline to [min existing given] — how the
    serve layer applies a per-request (per-tenant) deadline on top of
    whatever the job was built with. *)

(** Why a job produced no report. *)
type crash = {
  exn : string;  (** printed exception *)
  backtrace : string;  (** host-specific; absent from {!to_json} *)
  attempts : int;  (** runs attempted, retries included *)
}

type outcome = Finished of Report.t | Crashed of crash

(** One job's outcome, in job order. *)
type result = { name : string; outcome : outcome }

(** The aggregated fleet report. *)
type t = {
  results : result list;  (** in job order *)
  stats : Shift_machine.Stats.t;
      (** {!Shift_machine.Stats.total} over the sessions that finished *)
  exited : int;  (** sessions that exited normally *)
  alerted : int;  (** sessions stopped by a policy alert *)
  faulted : int;  (** sessions ended by a machine fault *)
  timed_out : int;  (** sessions that exhausted their fuel *)
  crashed : int;  (** jobs whose thunk or session raised *)
}

(** {1 The single-job supervised driver}

    {!step} is the unit the batch supervisor and the [shiftc serve]
    scheduler are both built from: one supervised stretch of one job's
    session. *)

val start : job -> Session.live
(** Build the job's image and start its session under the job's config,
    deadline applied — the session {!step} drives, for a front end that
    needs it live (checkpoint files, superblock counters, the flow
    trace). *)

(** How a stretch ended. *)
type step =
  | Done of Report.t  (** the session ran to completion *)
  | Parked of Snapshot.t
      (** [park_after] slices elapsed; the session is frozen in the
          snapshot and can be resumed — by any worker — via
          [step ~resume] *)
  | Failed of { exn : string; backtrace : string }
      (** the image thunk, the session machinery or a syscall handler
          raised; contained here rather than escaping *)

val step :
  ?slice:int ->
  ?park_after:int ->
  ?checkpoint_slices:bool ->
  ?on_checkpoint:(Snapshot.t -> unit) ->
  ?resume:Snapshot.t ->
  ?on_slice:(float -> unit) ->
  job ->
  step
(** Start the job's session (or restore it from [resume]) and advance
    it in [slice]-instruction budgets (default: one maximal slice).
    [park_after] freezes and returns the session after that many
    yielded slices — the serve scheduler's migration point.
    [checkpoint_slices] refreshes a checkpoint through [on_checkpoint]
    after every yielded slice (crash recovery).  [on_slice] observes
    each advance call's host-side wall-clock seconds; it runs on
    whatever domain drives the job, so a shared sink must synchronise.
    Slicing, parking and restoring never change results: counters are
    byte-identical however a run is cut. *)

val run :
  ?domains:int -> ?retries:int -> ?checkpoint_every:int -> job list -> t
(** Run every job through the domain pool ({!Pool.map} semantics for
    [?domains]) under supervision and fold the aggregate.  A raising
    job yields [Crashed] and never disturbs its siblings.  [retries]
    (default 0) reruns a crashed job up to that many extra times;
    [checkpoint_every] drives each session in slices of that many
    instructions and keeps an in-memory {!Snapshot.t} refreshed after
    every slice, so a retry resumes from the last good checkpoint
    instead of from scratch.  Checkpoint slicing never changes results:
    the engine's counters are byte-identical however a run is sliced. *)

val aggregate : result list -> t
(** Fold per-job results (in job order) into the fleet report — the
    aggregation {!run} applies after its pool pass, exposed so the
    serve layer can batch jobs it scheduled itself and still emit the
    same aggregate as [shiftc batch]. *)

val to_json : t -> Results.json
(** Deterministic serialisation: session counts, aggregate counters,
    and each run's {!Results.of_report} payload (or its crash, minus
    the host-specific backtrace), in job order.  Carries no host time,
    so it is diffable across pool sizes and commits. *)

val pp : Format.formatter -> t -> unit
(** A fixed-width table: one row per session plus a TOTAL row. *)
