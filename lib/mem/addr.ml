let region_shift = 61
let impl_bits = 40
let impl_mask = Int64.sub (Int64.shift_left 1L impl_bits) 1L
let null_guard = 4096L (* offsets below it fault in every region: the null page *)

let region a = Int64.to_int (Int64.logand (Int64.shift_right_logical a region_shift) 7L)
let offset a = Int64.logand a impl_mask

let in_region r off =
  if r < 0 || r > 7 then invalid_arg "Addr.in_region";
  Int64.logor (Int64.shift_left (Int64.of_int r) region_shift) (Int64.logand off impl_mask)

let unimplemented_mask =
  (* bits [impl_bits, region_shift) must be zero *)
  Int64.logxor
    (Int64.sub (Int64.shift_left 1L region_shift) 1L)
    impl_mask

let is_canonical a = Int64.equal (Int64.logand a unimplemented_mask) 0L
let is_valid a = is_canonical a && Int64.unsigned_compare (offset a) null_guard >= 0

(* Figure 4: move the region number down and recombine with the
   implemented bits.  One tag bit per byte means the bitmap byte index is
   offset >> 3; one tag bit per 8-byte word means offset >> 6.  The
   resulting offsets of distinct regions are kept disjoint by folding the
   region number into high offset bits of the tag space. *)
let region_fold a =
  Int64.shift_left (Int64.of_int (region a)) (impl_bits - 3)

let tag_addr g a =
  let shift = match g with Granularity.Byte -> 3 | Granularity.Word -> 6 in
  let folded = Int64.logor (Int64.shift_right_logical (offset a) shift) (region_fold a) in
  in_region 0 folded

let tag_bit g a =
  match g with
  | Granularity.Byte -> Int64.to_int (Int64.logand a 7L)
  | Granularity.Word -> Int64.to_int (Int64.logand (Int64.shift_right_logical a 3) 7L)

let tag_mask g ~width a =
  let bit = tag_bit g a in
  match g with
  | Granularity.Byte ->
      let n = min width (8 - bit) in
      Int64.shift_left (Int64.sub (Int64.shift_left 1L n) 1L) bit
  | Granularity.Word -> Int64.shift_left 1L bit

let pp ppf a = Format.fprintf ppf "r%d:0x%Lx" (region a) (offset a)
