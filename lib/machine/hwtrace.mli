(** The hardware observation trace for the side-channel detector.

    Records, per architecturally executed guest load/store, the L1D
    cache-set index the access mapped to and the hit/miss bit — the
    "hardware trace" of a speculation contract.  Emitted identically
    from the interpreter and the superblock closures, so the trace is a
    property of the guest execution, not of the engine that ran it.

    Storage and cost: entries live unboxed, four ints each in one flat
    [int array] (pc, set, hit|store flags, prov), 32 bytes per entry on
    a 64-bit host.  {!record} writes four slots and allocates nothing;
    the array starts at 256 entries and doubles when full, so growth
    costs amortised one copy per entry.  Readers take fields through
    the accessors ({!pc}, {!set}, {!hit}, {!store}, {!prov}), which
    allocate nothing either; {!get} and {!entries} build boxed
    {!entry} records for export and tests.

    Follow mode: a trace switched to {!follow} a reference stores no
    entries.  Each {!record} compares the access's clause-visible
    (store, set) pair with the reference's entry at the same index and
    keeps only the count ({!length}) and the index of the first
    mismatch ({!first_mismatch}); the limit and [dropped] rules are the
    same as for a recording trace.  The leak detector observes its
    variants this way against the baseline's recorded trace. *)

type entry = {
  e_pc : int;  (** guest pc of the load/store *)
  e_set : int;  (** cache-set index the address mapped to *)
  e_hit : bool;
  e_store : bool;
  e_prov : int;
      (** Flowtrace id of the address register at access time; 0 when the
          address was clean (or flow tracing was off) *)
}

type t = {
  mutable enabled : bool;
  mutable data : int array;
      (** four slots per entry; the first [4 * len] are live.  Treat as
          private: read through the accessors. *)
  mutable len : int;
  mutable dropped : int;  (** entries past [limit], counted not stored *)
  limit : int;
  mutable reference : t option;  (** the trace followed, in follow mode *)
  mutable mismatch : int;
      (** follow mode: index of the first access whose (store, set)
          differs from the reference's; -1 while none has *)
}

val disabled : unit -> t
(** The default on every CPU: recording off, zero cost beyond one
    boolean test per cache access. *)

val create : ?limit:int -> unit -> t
(** A live trace.  Past [limit] entries (default 2^20) recording stops
    and [dropped] counts the overflow, keeping memory bounded on long
    runs. *)

val follow : t -> reference:t -> unit
(** [follow t ~reference] switches the empty trace [t] to follow mode
    and frees its entry array.  [reference] must be a recording trace;
    it may still grow while [t] follows it.
    @raise Invalid_argument if [t] has recorded or dropped an access,
    or if [reference] follows a trace itself. *)

val record :
  t -> pc:int -> set:int -> hit:bool -> store:bool -> prov:int -> unit
(** Record one access; in follow mode, compare it instead.  Allocates
    nothing except when a recording trace's array doubles. *)

val length : t -> int
(** Accesses recorded (in follow mode, counted), up to [limit]. *)

val dropped : t -> int

val first_mismatch : t -> int option
(** Follow mode: the index of the first access whose (store, set)
    differs from the reference's entry at that index.  Only indexes
    both traces hold are compared, so two traces of different
    {!length} can still have no mismatch.  [None] for a recording
    trace. *)

(** {1 Field accessors}

    [f t i] reads field [f] of entry [i].
    @raise Invalid_argument unless [0 <= i < length t], and always in
    follow mode, which holds no entries. *)

val pc : t -> int -> int
val set : t -> int -> int
val hit : t -> int -> bool
val store : t -> int -> bool
val prov : t -> int -> int

val get : t -> int -> entry
(** Entry [i] as a record.
    @raise Invalid_argument unless [0 <= i < length t]. *)

val entries : t -> entry array
(** All recorded entries, oldest first. *)

val clear : t -> unit
(** Forget recorded entries and any mismatch (keeps [enabled] and the
    mode as they are). *)
