let get_bit mem g a =
  let byte = Memory.read_u8 mem (Addr.tag_addr g a) in
  byte lsr Addr.tag_bit g a land 1 = 1

let set_bit mem g a v =
  let ta = Addr.tag_addr g a in
  let bit = Addr.tag_bit g a in
  let byte = Memory.read_u8 mem ta in
  let byte = if v then byte lor (1 lsl bit) else byte land lnot (1 lsl bit) in
  Memory.write_u8 mem ta byte

let grain = function Granularity.Byte -> 1 | Granularity.Word -> 8

let popcount8 =
  Array.init 256 (fun n ->
      let rec go n acc = if n = 0 then acc else go (n lsr 1) (acc + (n land 1)) in
      go n 0)

(* ---------- the bit span of a range ----------

   Within one region, guest addresses map to contiguous tag-bitmap bits:
   the grain index (offset at byte granularity, offset/8 at word
   granularity) is the global bit number, so a range [addr, addr+len)
   covers the inclusive bitmap-byte span [tag_addr addr, tag_addr last]
   with partial first/last bytes given by [tag_bit].  The fast range
   operations below walk that span bytes-at-a-time (with 8-byte strides
   on long interior runs) instead of testing one bit per guest byte.
   Ranges that cross a region boundary — where tag bytes jump — take the
   per-bit walk. *)

type span = {
  ta0 : int64;  (* first tag byte *)
  ta1 : int64;  (* last tag byte (inclusive) *)
  b0 : int;     (* first bit within ta0 *)
  b1 : int;     (* last bit within ta1 *)
}

let span_of g ~addr ~len =
  let last = Int64.add addr (Int64.of_int (len - 1)) in
  if
    len > 0
    && Addr.region addr = Addr.region last
    && Int64.unsigned_compare (Addr.offset addr) (Addr.offset last) <= 0
  then
    Some
      {
        ta0 = Addr.tag_addr g addr;
        ta1 = Addr.tag_addr g last;
        b0 = Addr.tag_bit g addr;
        b1 = Addr.tag_bit g last;
      }
  else None

let first_mask b0 = 0xff lsl b0 land 0xff
let last_mask b1 = 0xff lsr (7 - b1)

let update_byte mem ta mask tainted =
  let byte = Memory.read_u8 mem ta in
  let byte = if tainted then byte lor mask else byte land lnot mask in
  Memory.write_u8 mem ta byte

let set_range_ref mem g ~addr ~len ~tainted =
  let step = grain g in
  (* align the walk to the grain so every covered unit is touched *)
  let first = Int64.logand addr (Int64.of_int (lnot (step - 1))) in
  let last = Int64.add addr (Int64.of_int (len - 1)) in
  let a = ref first in
  while Int64.unsigned_compare !a last <= 0 do
    set_bit mem g !a tainted;
    a := Int64.add !a (Int64.of_int step)
  done

let set_range mem g ~addr ~len ~tainted =
  if len > 0 then
    match span_of g ~addr ~len with
    | None -> set_range_ref mem g ~addr ~len ~tainted
    | Some { ta0; ta1; b0; b1 } ->
        if Int64.equal ta0 ta1 then
          update_byte mem ta0 (first_mask b0 land last_mask b1) tainted
        else begin
          update_byte mem ta0 (first_mask b0) tainted;
          update_byte mem ta1 (last_mask b1) tainted;
          let fill8 = if tainted then 0xff else 0 in
          let fill64 = if tainted then -1L else 0L in
          let a = ref (Int64.add ta0 1L) in
          while Int64.unsigned_compare !a ta1 < 0 do
            if
              Int64.logand !a 7L = 0L
              && Int64.unsigned_compare (Int64.add !a 8L) ta1 <= 0
            then begin
              Memory.write mem !a ~width:8 fill64;
              a := Int64.add !a 8L
            end
            else begin
              Memory.write_u8 mem !a fill8;
              a := Int64.add !a 1L
            end
          done
        end

let is_tainted mem g a = get_bit mem g a

let fold_range mem g ~addr ~len f init =
  let acc = ref init in
  for i = 0 to len - 1 do
    let a = Int64.add addr (Int64.of_int i) in
    acc := f !acc i (get_bit mem g a)
  done;
  !acc

(* Masked popcount over the span, walking tag bytes. *)
let span_popcount mem { ta0; ta1; b0; b1 } =
  if Int64.equal ta0 ta1 then
    popcount8.(Memory.read_u8 mem ta0 land (first_mask b0 land last_mask b1))
  else begin
    let count =
      ref
        (popcount8.(Memory.read_u8 mem ta0 land first_mask b0)
        + popcount8.(Memory.read_u8 mem ta1 land last_mask b1))
    in
    let a = ref (Int64.add ta0 1L) in
    while Int64.unsigned_compare !a ta1 < 0 do
      count := !count + popcount8.(Memory.read_u8 mem !a);
      a := Int64.add !a 1L
    done;
    !count
  end

let span_any mem { ta0; ta1; b0; b1 } =
  if Int64.equal ta0 ta1 then
    Memory.read_u8 mem ta0 land (first_mask b0 land last_mask b1) <> 0
  else if Memory.read_u8 mem ta0 land first_mask b0 <> 0 then true
  else if Memory.read_u8 mem ta1 land last_mask b1 <> 0 then true
  else begin
    let found = ref false in
    let a = ref (Int64.add ta0 1L) in
    while (not !found) && Int64.unsigned_compare !a ta1 < 0 do
      if
        Int64.logand !a 7L = 0L
        && Int64.unsigned_compare (Int64.add !a 8L) ta1 <= 0
      then begin
        if not (Int64.equal (Memory.read mem !a ~width:8) 0L) then found := true
        else a := Int64.add !a 8L
      end
      else begin
        if Memory.read_u8 mem !a <> 0 then found := true
        else a := Int64.add !a 1L
      end
    done;
    !found
  end

let any_tainted mem g ~addr ~len =
  match span_of g ~addr ~len with
  | Some span -> span_any mem span
  | None -> fold_range mem g ~addr ~len (fun acc _ b -> acc || b) false

(* [count_tainted] counts tainted guest *bytes*.  At byte granularity
   that is the popcount of the span.  At word granularity each set grain
   bit stands for up to 8 bytes of the range: 8 for interior grains,
   fewer for the (possibly partial) first and last grains. *)
let count_tainted mem g ~addr ~len =
  match span_of g ~addr ~len with
  | None -> fold_range mem g ~addr ~len (fun acc _ b -> if b then acc + 1 else acc) 0
  | Some span -> (
      match g with
      | Granularity.Byte -> span_popcount mem span
      | Granularity.Word ->
          let last = Int64.add addr (Int64.of_int (len - 1)) in
          let g0 = Int64.shift_right_logical (Addr.offset addr) 3 in
          let g1 = Int64.shift_right_logical (Addr.offset last) 3 in
          if Int64.equal g0 g1 then if span_any mem span then len else 0
          else begin
            let bit0 = if get_bit mem g addr then 1 else 0 in
            let bit1 = if get_bit mem g last then 1 else 0 in
            let first_bytes = 8 - Int64.to_int (Int64.logand (Addr.offset addr) 7L) in
            let last_bytes = Int64.to_int (Int64.logand (Addr.offset last) 7L) + 1 in
            let interior = span_popcount mem span - bit0 - bit1 in
            (8 * interior) + (bit0 * first_bytes) + (bit1 * last_bytes)
          end)

let first_tainted mem g ~addr ~len =
  fold_range mem g ~addr ~len
    (fun acc i b -> match acc with Some _ -> acc | None -> if b then Some i else None)
    None

let tainted_string_positions mem g addr s =
  let out = ref [] in
  String.iteri
    (fun i _ ->
      if get_bit mem g (Int64.add addr (Int64.of_int i)) then out := i :: !out)
    s;
  List.rev !out
