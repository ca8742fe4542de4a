(** Sparse paged physical backing for the 64-bit virtual address space.

    Pages are allocated lazily and zero-filled, which conveniently gives
    the taint bitmap (region 0) an all-clear initial state.  Validity of
    addresses (canonicality, null guard) is the machine's concern; this
    module only moves bytes. *)

type t

val create : unit -> t

val page_size : int
(** Guest bytes per page.  A page's key is its address shifted right by
    log2 [page_size]. *)

val shadow : page_len:int -> t
(** A shadow table: the same page keys, TLB, {!clone}, {!fold_pages}
    and {!load_page} as guest memory, but each page holds [page_len]
    bytes for its {!page_size} guest bytes (the provenance shadow keeps
    four per guest byte, see {!Provenance}), and the table starts small
    because most shadows stay empty.  Read and write its pages through
    {!page} and {!find}; the byte accessors below address guest memory
    only. *)

val page : t -> int64 -> bytes
(** [page t a] is the live page holding guest address [a], allocated
    zero-filled on first use and cached in the TLB.  The byte for [a]
    sits at [a land (page_size - 1)] times the bytes kept per guest
    byte. *)

val find : t -> int64 -> bytes
(** Like {!page}, but never allocates: the page of [a] if one exists,
    else an empty [bytes] (length 0). *)

val watch : t -> lo:int64 -> hi:int64 -> (int64 -> int -> unit) -> unit
(** Register a store observer for the address range [\[lo, hi)].  Every
    top-level write whose range intersects a watched range calls each
    observer with the written address and length, at least once —
    observers must be idempotent, because byte-walk fallbacks may
    re-notify per byte.  Reads never notify.  The superblock compiler
    uses this to invalidate compiled blocks on stores into the code
    region; when no watcher is registered the cost is one list check
    per write. *)

val read_u8 : t -> int64 -> int
val write_u8 : t -> int64 -> int -> unit

val read : t -> int64 -> width:int -> int64
(** Little-endian read of [width] bytes (1, 2, 4 or 8), zero-extended. *)

val write : t -> int64 -> width:int -> int64 -> unit
(** Little-endian write of the low [width] bytes of the value. *)

val read_bytes : t -> int64 -> len:int -> string
val write_bytes : t -> int64 -> string -> unit

val read_cstring : ?max:int -> t -> int64 -> string
(** Read a NUL-terminated string (at most [max] bytes, default 65536;
    truncated if no NUL is found). *)

val write_cstring : t -> int64 -> string -> unit
(** Write the string followed by a NUL byte. *)

val allocated_pages : t -> int
(** Number of pages touched so far (for tests and reporting). *)

val clone : t -> t
(** Deep copy: a fresh memory (or shadow, with the same [page_len])
    whose pages hold the same bytes but never alias the original (fork's
    address-space copy).  The clone has a cold TLB and no watchers. *)

(** {1 Page iteration (checkpoint/restore)} *)

val fold_pages : t -> init:'a -> f:('a -> int64 -> bytes -> 'a) -> 'a
(** Fold over the allocated pages in ascending page-key order (the key
    is the address shifted right by log2 page size).  All-zero pages
    are skipped — a never-allocated page reads as zeros, so eliding
    them is invisible to {!read}.  The [bytes] is the live backing
    store: do not mutate it. *)

val load_page : t -> int64 -> string -> unit
(** [load_page t key data] installs [data] (exactly {!page_size} bytes,
    or a shadow's [page_len]) as the page with the given key, allocating
    it if needed.
    @raise Invalid_argument on a size mismatch. *)
