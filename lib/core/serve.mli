(** [shiftc serve]: a resident taint-tracking service.

    Three layers, separable so each is testable on its own:

    - a {!catalog} turns a job request into the work it runs —
      injected by the caller, because the core library cannot depend on
      the workload/attack suites;
    - a {!Scheduler} admits jobs, drives their sessions in bounded
      engine slices ({!Session.advance} via {!Fleet.step}) on a
      resident {!Pool.Workers} domain pool, migrates a running session
      between workers through {!Snapshot} images, and contains crashes
      with retries-from-checkpoint;
    - a {!Server} speaks {!Protocol} (versioned JSONL) over a
      Unix-domain socket: accept/dispatch, response routing, graceful
      drain.

    The headline invariant, enforced by CI: a job's JSON result is
    byte-identical whether it runs solo ([shiftc run --json]), batched,
    or checkpoint-migrated mid-flight between the daemon's workers —
    sessions are pure given their config, and slicing or migrating
    never perturbs the simulated machine. *)

(** {1 Job catalogues} *)

(** What a job request runs. *)
type work =
  | Job of Fleet.job  (** one scheduled session: [run], [attack], [trace] *)
  | Jobs of { jobs : Fleet.job list; retries : int }
      (** a batch, answered with its {!Fleet.aggregate}; [retries] is
          each job's crash-retry budget *)
  | Probe of { start : int -> Session.live; clause : Leak.clause; variants : int }
      (** a leakage probe: {!Leak.detect} over [variants] sessions,
          [start i] beginning variant [i].  The server answers it
          synchronously — a probe is a handful of ordinary sessions,
          not a schedulable long-running job. *)

type catalog = Protocol.request -> (work, string) result
(** How a job request becomes work: the one resolver of names and
    options to sessions, shared by the server and by [shiftc]'s one-shot
    commands, which resolve their request through it and run what comes
    back — so a served result equals the solo one by construction.
    [Error msg] means an unknown name; the server answers it with
    [unknown_name].  [Status] and [Drain] are the server's own and never
    reach the catalogue.  The standard catalogue over the SPEC-like
    kernels and the attack suites lives in [lib/catalog] (the core
    library cannot depend on those suites). *)

(** {1 The scheduler} *)

module Scheduler : sig
  (** Admits jobs and multiplexes their sessions over a resident domain
      pool.  Each job is driven in [slice]-instruction engine slices;
      with [migrate_every] set, the session is checkpointed after that
      many slices, parked, and re-enqueued — so the next stretch may run
      on a different worker (live migration).  A crashing job is retried
      from its last parked snapshot up to its [retries] budget, then
      reported as {!Fleet.Crashed}.  Results are byte-identical to solo
      runs whatever the slicing, worker count or migration cadence. *)

  type t

  (** A completed job, as handed to [on_done] / {!take_finished}. *)
  type done_job = {
    job : string;  (** the id given to {!submit} *)
    outcome : Fleet.outcome;
    migrations : int;  (** parks survived (worker handoffs) *)
    attempts : int;  (** session runs attempted, retries included *)
  }

  val create :
    ?workers:int ->
    ?slice:int ->
    ?on_slice:(float -> unit) ->
    ?on_done:(done_job -> unit) ->
    ?checkpoint_dir:string ->
    unit ->
    t
  (** [workers] [<= 0] (default) means the runtime's recommendation;
      [slice] is the engine budget per advance (default 50_000
      instructions).  [on_slice] observes every slice's host wall-clock
      seconds and [on_done] every completion; both run on worker
      domains, so shared sinks must synchronise.  [checkpoint_dir]
      additionally persists each parked snapshot to
      [job-<seq>.snap.json] in that directory (created if missing,
      removed when the job completes) so an operator can [shiftc
      resume] orphaned work after a daemon crash. *)

  val workers : t -> int

  val submit :
    t ->
    ?deadline:int ->
    ?migrate_every:int ->
    ?retries:int ->
    id:string ->
    Fleet.job ->
    unit
  (** Admit a job under [id] (unique per scheduler; the same id comes
      back in the {!done_job}).  [deadline] tightens the job's fuel cap
      ({!Fleet.with_deadline}); [migrate_every] parks-and-migrates the
      session every that-many slices; [retries] (default 0) is the
      crash-retry budget. *)

  val in_flight : t -> int
  (** Jobs admitted but not yet completed (queued, running or parked). *)

  val stats : t -> (string * int) list
  (** Counters for the status endpoint: workers, admitted, in_flight,
      running, completed, crashed, migrations — in that order. *)

  val take_finished : t -> done_job list
  (** Completed jobs not yet collected, in completion order. *)

  val drain : t -> unit
  (** Block until every admitted job has completed. *)

  val shutdown : t -> unit
  (** Join the worker pool.  Call {!drain} first: a job still in
      flight when the pool stops is completed as crashed. *)
end

(** {1 The socket server} *)

module Server : sig
  type config = {
    socket_path : string;  (** Unix-domain socket path *)
    workers : int;  (** scheduler workers; [<= 0] = recommended *)
    slice : int;  (** engine slice, instructions *)
    max_request_bytes : int;  (** request-line cap, advertised in hello *)
    checkpoint_dir : string option;  (** parked-snapshot spill directory *)
    migrate_every : int option;
        (** default migration cadence for requests that don't choose *)
  }

  val default_config : config
  (** [shiftc.sock], recommended workers, 50_000-instruction slices,
      {!Protocol.default_max_request_bytes}, no spill dir, no default
      migration. *)

  val run : ?on_ready:(config -> unit) -> catalog:catalog -> config -> unit
  (** Bind the socket (replacing a stale file), call [on_ready], and
      serve until a [drain] request completes: admission stops, in-flight
      jobs finish and their responses flush, drain waiters are answered,
      then the socket is closed and unlinked and the worker pool joined.
      Malformed lines are answered with protocol errors; a client
      disconnecting mid-job never disturbs the job (its result is
      dropped).  Blocks the calling domain for the server's lifetime. *)
end

(** {1 A blocking client}

    The client side of {!Protocol}, used by [shiftc client], the serve
    benchmark and the test suite. *)

module Client : sig
  type t

  val connect : string -> (t, string) result
  (** Connect to the daemon's socket and perform the hello handshake. *)

  val request : t -> Protocol.envelope -> (Results.json, string) result
  (** Send one request and block until the response with the matching
      [id] arrives (responses to other requests are queued aside).
      [Error] means a transport failure, not a protocol-level error
      response — those come back as [Ok json] with ["ok": false]. *)

  val send_line : t -> string -> (unit, string) result
  (** Ship a raw line (for protocol edge-case tests). *)

  val read_line : t -> string option
  (** Next line from the server, [None] at EOF. *)

  val close : t -> unit
end
