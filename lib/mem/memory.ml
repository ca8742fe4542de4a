let page_size = 4096
let page_shift = 12
let page_mask = Int64.of_int (page_size - 1)

(* Direct-mapped software TLB in front of the page hashtable.  Pages are
   allocated once and never replaced or freed, so a cached (key, page)
   pair can never go stale: a hit always returns the live backing store,
   and writes through a hit land in the same bytes the hashtable holds.
   64 entries cover the working set of one simulated program (code pages
   are not in this table; data, stack and the taint bitmap are). *)
let tlb_bits = 6
let tlb_size = 1 lsl tlb_bits

type t = {
  pages : (int64, bytes) Hashtbl.t;
  tlb_keys : int64 array; (* page key per slot; -1 = empty (keys are >= 0) *)
  tlb_pages : bytes array;
  (* Write watch: observers of guest stores into [watch_lo, watch_hi)
     (the superblock compiler watches the code region so stores there
     invalidate covering blocks).  The hot-path cost when nothing is
     watched is one physical list-emptiness check per store. *)
  mutable watch_lo : int64;
  mutable watch_hi : int64;
  mutable watchers : (int64 -> int -> unit) list;
  page_len : int; (* bytes per page: page_size, or more for a shadow *)
}

let no_page = Bytes.create 0

let make ~page_len pages =
  {
    pages;
    tlb_keys = Array.make tlb_size (-1L);
    tlb_pages = Array.make tlb_size no_page;
    watch_lo = 0L;
    watch_hi = 0L;
    watchers = [];
    page_len;
  }

let create () = make ~page_len:page_size (Hashtbl.create 1024)

(* Every CPU carries a provenance shadow, traced or not, and most stay
   empty: a small table keeps that cheap. *)
let shadow ~page_len = make ~page_len (Hashtbl.create 64)

let watch t ~lo ~hi f =
  (match t.watchers with
  | [] ->
      t.watch_lo <- lo;
      t.watch_hi <- hi
  | _ ->
      if Int64.unsigned_compare lo t.watch_lo < 0 then t.watch_lo <- lo;
      if Int64.unsigned_compare hi t.watch_hi > 0 then t.watch_hi <- hi);
  t.watchers <- f :: t.watchers

(* Fire the watchers when [a, a+len) intersects the watched range.
   Idempotent observers make double notification through the byte-walk
   fallbacks harmless, so each top-level write path notifies at least
   once without trying to notify exactly once. *)
let notify t a len =
  match t.watchers with
  | [] -> ()
  | ws ->
      if
        len > 0
        && Int64.unsigned_compare a t.watch_hi < 0
        && Int64.unsigned_compare (Int64.add a (Int64.of_int len)) t.watch_lo > 0
      then List.iter (fun f -> f a len) ws

let page_of_key t key =
  match Hashtbl.find_opt t.pages key with
  | Some p -> p
  | None ->
      let p = Bytes.make t.page_len '\000' in
      Hashtbl.add t.pages key p;
      p

(* The steady-state lookup: one shift, one masked array probe.  Page
   keys are [a >>> 12], hence non-negative, so -1 is a safe empty mark
   and [Int64.to_int] is exact. *)
let page t a =
  let key = Int64.shift_right_logical a page_shift in
  let slot = Int64.to_int key land (tlb_size - 1) in
  if Int64.equal (Array.unsafe_get t.tlb_keys slot) key then
    Array.unsafe_get t.tlb_pages slot
  else begin
    let p = page_of_key t key in
    Array.unsafe_set t.tlb_keys slot key;
    Array.unsafe_set t.tlb_pages slot p;
    p
  end

(* [page] without the allocation: a page that was never written is
   [no_page], and is not cached. *)
let find t a =
  let key = Int64.shift_right_logical a page_shift in
  let slot = Int64.to_int key land (tlb_size - 1) in
  if Int64.equal (Array.unsafe_get t.tlb_keys slot) key then
    Array.unsafe_get t.tlb_pages slot
  else
    match Hashtbl.find_opt t.pages key with
    | Some p ->
        Array.unsafe_set t.tlb_keys slot key;
        Array.unsafe_set t.tlb_pages slot p;
        p
    | None -> no_page

let read_u8 t a =
  let p = page t a in
  Char.code (Bytes.get p (Int64.to_int (Int64.logand a page_mask)))

let write_u8 t a v =
  let p = page t a in
  Bytes.set p (Int64.to_int (Int64.logand a page_mask)) (Char.chr (v land 0xff));
  notify t a 1

(* The byte walk: the fallback for accesses that cross a page boundary
   and for widths other than 1, 2, 4 and 8. *)

let read_walk t a ~width =
  let rec go i acc =
    if i >= width then acc
    else
      let b = read_u8 t (Int64.add a (Int64.of_int i)) in
      go (i + 1) (Int64.logor acc (Int64.shift_left (Int64.of_int b) (8 * i)))
  in
  go 0 0L

let write_walk t a ~width v =
  for i = 0 to width - 1 do
    let b = Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xffL) in
    write_u8 t (Int64.add a (Int64.of_int i)) b
  done

(* An access that stays inside its page is a single [Bytes] primitive
   on the TLB-resident page. *)

let read t a ~width =
  let off = Int64.to_int (Int64.logand a page_mask) in
  if off + width <= page_size then
    let p = page t a in
    match width with
    | 8 -> Bytes.get_int64_le p off
    | 4 -> Int64.logand (Int64.of_int32 (Bytes.get_int32_le p off)) 0xffffffffL
    | 2 -> Int64.of_int (Bytes.get_uint16_le p off)
    | 1 -> Int64.of_int (Char.code (Bytes.unsafe_get p off))
    | _ -> read_walk t a ~width
  else read_walk t a ~width

let write t a ~width v =
  let off = Int64.to_int (Int64.logand a page_mask) in
  if off + width <= page_size then begin
    let p = page t a in
    (match width with
    | 8 -> Bytes.set_int64_le p off v
    | 4 -> Bytes.set_int32_le p off (Int64.to_int32 v)
    | 2 -> Bytes.set_uint16_le p off (Int64.to_int v land 0xffff)
    | 1 -> Bytes.unsafe_set p off (Char.chr (Int64.to_int v land 0xff))
    | _ -> write_walk t a ~width v);
    notify t a width
  end
  else write_walk t a ~width v

(* String transfers: one blit per page the range touches instead of
   one hashtable probe per character. *)

let read_bytes t a ~len =
  let buf = Bytes.create len in
  let rec go pos =
    if pos < len then begin
      let addr = Int64.add a (Int64.of_int pos) in
      let off = Int64.to_int (Int64.logand addr page_mask) in
      let n = min (len - pos) (page_size - off) in
      Bytes.blit (page t addr) off buf pos n;
      go (pos + n)
    end
  in
  go 0;
  Bytes.unsafe_to_string buf

let write_bytes t a s =
  let len = String.length s in
  let rec go pos =
    if pos < len then begin
      let addr = Int64.add a (Int64.of_int pos) in
      let off = Int64.to_int (Int64.logand addr page_mask) in
      let n = min (len - pos) (page_size - off) in
      Bytes.blit_string s pos (page t addr) off n;
      go (pos + n)
    end
  in
  go 0;
  notify t a len

let read_cstring ?(max = 65536) t a =
  let buf = Buffer.create 32 in
  let rec go pos =
    if pos < max then begin
      let addr = Int64.add a (Int64.of_int pos) in
      let off = Int64.to_int (Int64.logand addr page_mask) in
      let n = min (max - pos) (page_size - off) in
      let p = page t addr in
      match Bytes.index_from_opt p off '\000' with
      | Some i when i < off + n -> Buffer.add_subbytes buf p off (i - off)
      | _ ->
          Buffer.add_subbytes buf p off n;
          go (pos + n)
    end
  in
  go 0;
  Buffer.contents buf

let write_cstring t a s =
  write_bytes t a s;
  write_u8 t (Int64.add a (Int64.of_int (String.length s))) 0

let allocated_pages t = Hashtbl.length t.pages

(* Deep copy for fork: every page is copied into a copy of the table
   (same page length, same size) so the two address spaces never alias.
   The clone starts with a cold TLB and no watchers — the child's
   machine registers its own. *)
let clone t =
  let pages = Hashtbl.copy t.pages in
  Hashtbl.filter_map_inplace (fun _ p -> Some (Bytes.copy p)) pages;
  make ~page_len:t.page_len pages

(* ---------- page iteration (checkpoint/restore) ----------

   Pages are exported in ascending key order so a dump of the same
   memory state is byte-identical regardless of hashtable history.
   All-zero pages are skipped: a fresh page is zero-filled, so eliding
   them loses nothing observable and keeps snapshots sparse. *)

let fold_pages t ~init ~f =
  let zero = Bytes.make t.page_len '\000' in
  let keys =
    Hashtbl.fold (fun k _ acc -> k :: acc) t.pages []
    |> List.sort Int64.unsigned_compare
  in
  List.fold_left
    (fun acc key ->
      let p = Hashtbl.find t.pages key in
      if Bytes.equal p zero then acc else f acc key p)
    init keys

let load_page t key data =
  if String.length data <> t.page_len then
    invalid_arg "Memory.load_page: page data must be exactly page_size bytes";
  let p = page_of_key t key in
  Bytes.blit_string data 0 p 0 t.page_len
