(** A fixed-size work pool over OCaml 5 domains with deterministic
    result ordering.

    The system's unit of work — compile a guest program under a mode
    and run it to completion on the simulator — is pure given its
    inputs (the simulated machine carries no host-time or randomness),
    so a grid of independent sessions can execute on any number of
    domains and still produce byte-identical output: {!map} always
    returns results in the order of its input list, whatever order the
    items were picked up in.

    Shared by the bench harness, the core library ({!Fleet}) and the
    CLI, which all batch sessions across domains through it. *)

val set_domains : int -> unit
(** Fix the pool size used by {!map} when no [?domains] override is
    given.  [0] (and any negative value) means
    [Domain.recommended_domain_count ()].  Call once at startup,
    before the first {!map}. *)

val domains : unit -> int
(** The pool size {!map} will use: the {!set_domains} value, defaulting
    to [Domain.recommended_domain_count ()]. *)

(** A resident domain pool for long-lived services.

    {!map} spins its domains up and down per call — right for batch
    grids, wrong for a daemon.  A {!Workers.t} keeps its domains alive
    and feeds them submitted thunks until {!Workers.shutdown}; the
    [shiftc serve] scheduler drives session slices through one. *)
module Workers : sig
  type t

  val create : ?domains:int -> unit -> t
  (** Spawn a pool of [domains] resident workers ([<= 0], the default,
      means [Domain.recommended_domain_count ()]). *)

  val size : t -> int
  (** The number of worker domains. *)

  val submit : t -> (unit -> unit) -> unit
  (** Enqueue a thunk; some worker runs it FIFO.  A raising thunk is
      contained (the worker survives and its exception is dropped), so
      callers that care wrap their own supervision around the task.
      @raise Invalid_argument after {!shutdown}. *)

  val shutdown : t -> unit
  (** Stop accepting work, let the queue run dry, and join every
      worker.  Already-queued tasks complete first. *)
end

val map : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map f items] applies [f] to every item and returns the results in
    input order.  Items are distributed over [min domains (length
    items)] domains via a shared atomic cursor; with an effective pool
    size of one, [f] runs in the calling domain with no spawns at all,
    which is the serial path the parallel output is required to match.
    If any application of [f] raises, the pool finishes its other items,
    then re-raises the exception of the earliest failed item. *)
