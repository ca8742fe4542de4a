(** Per-byte provenance shadow map.

    Alongside the taint bitmap (which says {e whether} a guest byte is
    tainted) the Flowtrace subsystem keeps a second shadow: {e which
    input source} each byte came from.  Every guest byte maps to a small
    non-negative integer source id; id [0] means "no recorded source".
    The ids themselves are interned to [source] records by
    {!Shift_machine.Flowtrace} — this module only stores and moves them.

    The map is a {!Memory.shadow} table: the same page keys, TLB,
    clone, fold and load as guest memory, with pages of four bytes (one
    little-endian int32 id) per guest byte, allocated on first write.
    The span operations mirror the shape of {!Taint.set_range}: one
    masked walk per page the range touches rather than one table probe
    per byte.  A span inside one page — every aligned guest load and
    store — is handled directly and, on a TLB hit, allocates nothing;
    only spans crossing a page boundary pay for the per-segment walk.
    Reads of never-written pages return [0] without allocating. *)

type t

val create : unit -> t

val get : t -> int64 -> int
(** [get t a] is the source id of guest byte [a], or [0]. *)

val set : t -> int64 -> int -> unit
(** [set t a id] records source [id] for guest byte [a]. *)

val set_range : t -> addr:int64 -> len:int -> id:int -> unit
(** Constant fill: every byte of [addr, addr+len) gets [id].  Clearing
    ([id = 0]) an unallocated page is free. *)

val set_span : t -> addr:int64 -> len:int -> first:int -> unit
(** Consecutive fill: byte [addr + k] gets id [first + k].  Used when a
    fresh input span is interned as a run of per-byte sources. *)

val first_id : t -> addr:int64 -> len:int -> int
(** The first non-zero id in [addr, addr+len), or [0]. *)

val allocated_pages : t -> int

val clone : t -> t
(** Deep copy of the shadow (fork copies provenance alongside memory). *)

val fold_pages : t -> init:'a -> f:('a -> int64 -> bytes -> 'a) -> 'a
(** Fold over allocated shadow pages in ascending key order, skipping
    all-zero pages (a missing page reads as id 0).  The [bytes] is the
    live backing store: do not mutate it. *)

val page_size : int
(** Bytes of one shadow page as {!fold_pages} hands it out: four per
    guest byte. *)

val load_page : t -> int64 -> string -> unit
(** Install a page dumped by {!fold_pages} ({!page_size} bytes).
    @raise Invalid_argument on a size mismatch. *)
