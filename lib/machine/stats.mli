(** Execution statistics.

    [cycles] comes from the pipeline timing model; slowdowns in the
    paper's Figures 6-8 are ratios of instrumented to baseline cycles.
    Issue slots are accounted per instruction provenance, which drives
    the Figure-9 overhead breakdown. *)

type t = {
  mutable instructions : int;   (** dynamically executed instructions *)
  mutable cycles : int;         (** total cycles incl. I/O costs *)
  mutable loads : int;          (** executed (non-predicated-off) loads *)
  mutable stores : int;
  mutable branches : int;       (** taken control transfers *)
  mutable predicated_off : int; (** slots spent on false-predicate instructions *)
  mutable syscalls : int;
  mutable io_cycles : int;      (** cycles charged by syscall handlers *)
  slots_by_prov : int array;    (** issue slots per {!Shift_isa.Prov.t} index *)
}

val create : unit -> t
(** Fresh, all-zero counters. *)

val copy : t -> t
(** Snapshot (the slot array is duplicated, not shared). *)

val total : t list -> t
(** Fresh counters that are the element-wise sum of the inputs, cycles
    included — the aggregate for {e sequential} composition (a fleet of
    independent sessions).  [total []] is all zeroes. *)

val concurrent : t list -> t
(** Like {!total}, but [cycles] is the {e maximum} over the inputs:
    SMP harts execute in parallel, so events sum while elapsed time is
    the slowest hart's pipeline.  [concurrent []] is all zeroes. *)

val slots : t -> Shift_isa.Prov.t -> int
(** Issue slots charged to instructions of the given provenance. *)

val total_slots : t -> int
(** Issue slots over all provenances. *)

val instrumentation_slots : t -> int
(** Slots spent on non-[Orig] instructions. *)

val pp : Format.formatter -> t -> unit

(** {1 Superblock compiler counters}

    Host-side block-cache behaviour ({!Superblock}).  Deliberately not
    part of {!t}: these depend on how the host executed the guest (block
    cache warmth, fuel slicing), so folding them into the simulated
    counters would break the guarantee that superblocks-on and
    superblocks-off runs produce byte-identical reports and snapshots. *)

type superblocks = {
  mutable sb_compiled : int;       (** superblocks compiled *)
  mutable sb_hits : int;           (** block-cache hits (blocks entered) *)
  mutable sb_misses : int;         (** lookups that found no usable block *)
  mutable sb_invalidations : int;  (** blocks dropped by this machine's code writes *)
  mutable sb_fallback : int;       (** instructions run by the interpreter fallback *)
}

val sb_create : unit -> superblocks
(** Fresh, all-zero counters. *)

val sb_total : superblocks list -> superblocks
(** Fresh element-wise sum (aggregating SMP harts). *)

val pp_superblocks : Format.formatter -> superblocks -> unit
