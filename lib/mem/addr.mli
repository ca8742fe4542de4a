(** Virtual-address arithmetic for the simulated Itanium-like machine.

    As on Itanium (paper §4.1), the 64-bit virtual address space is
    partitioned into eight regions selected by the top three address
    bits.  Region 0 is reserved (Itanium keeps it for IA-32 support);
    SHIFT reuses it as the {e tag space} holding the taint bitmap.

    Itanium implements fewer than 61 offset bits; the unimplemented bits
    create holes, so a tag address cannot be obtained with a plain shift.
    Instead, the translation keeps the implemented offset bits and drops
    the region into region 0 — Figure 4 of the paper.  We implement
    [impl_bits] = 40 implemented offset bits. *)

val region_shift : int
(** Bit position of the region number (61). *)

val impl_bits : int
(** Number of implemented offset bits (40). *)

val impl_mask : int64
(** [(1 << impl_bits) - 1]: mask of the implemented offset bits.  The
    instrumentation keeps this constant in a reserved register. *)

val region : int64 -> int
(** Region number (top three bits) of an address. *)

val offset : int64 -> int64
(** Implemented offset bits of an address. *)

val in_region : int -> int64 -> int64
(** [in_region r off] builds the canonical address of offset [off] in
    region [r]. *)

val is_canonical : int64 -> bool
(** True when all bits between [impl_bits] and [region_shift] are
    clear (no unimplemented bit set). *)

val is_valid : int64 -> bool
(** Canonical and outside the null guard page. *)

(** {1 Tag-space translation (Figure 4)} *)

val tag_addr : Granularity.t -> int64 -> int64
(** Address (in region 0) of the bitmap byte holding the tag bit(s) for
    the given data address. *)

val tag_bit : Granularity.t -> int64 -> int
(** Bit index within that bitmap byte of the data address's tag bit. *)

val tag_mask : Granularity.t -> width:int -> int64 -> int64
(** Bit mask within the bitmap byte covering an aligned access of
    [width] bytes at the address.  With byte granularity an 8-byte
    access covers eight bits; with word granularity any aligned access
    of at most 8 bytes covers one bit. *)

val pp : Format.formatter -> int64 -> unit
(** Prints as [rN:0x...]. *)
