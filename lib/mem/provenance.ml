(* Per-byte source ids in a Memory shadow table: one page per 4096
   guest bytes under Memory's page keys, holding one little-endian int32
   id per guest byte.  Memory owns the paging (table, TLB, clone, fold,
   load); this module only places and scans ids. *)

type t = Memory.t

let page_bytes = Memory.page_size (* guest bytes per page *)
let page_mask = Int64.of_int (page_bytes - 1)
let slot_size = 4 (* shadow bytes per guest byte *)
let page_size = page_bytes * slot_size

let create () = Memory.shadow ~page_len:page_size
let find = Memory.find
let page = Memory.page
let missing p = Bytes.length p = 0
let off_of a = Int64.to_int (Int64.logand a page_mask)

let get t a =
  let p = find t a in
  if missing p then 0
  else Int32.to_int (Bytes.get_int32_le p (off_of a * slot_size))

let set t a id =
  let p = page t a in
  Bytes.set_int32_le p (off_of a * slot_size) (Int32.of_int id)

(* Walk [addr, addr+len) one page segment at a time, calling
   [f page off n base] for each segment: [n] guest bytes starting at
   page offset [off], covering range positions [base, base+n).  When
   [skip_missing] the segment is skipped (not allocated) if the page
   does not exist — right for clears and reads, wrong for fills. *)
let segments t ~addr ~len ~skip_missing f =
  let rec go pos =
    if pos < len then begin
      let a = Int64.add addr (Int64.of_int pos) in
      let off = off_of a in
      let n = min (len - pos) (page_bytes - off) in
      let p = if skip_missing then find t a else page t a in
      if not (skip_missing && missing p) then f p off n pos;
      go (pos + n)
    end
  in
  go 0

(* The per-segment bodies: [n] guest bytes from page offset [off].  A
   span inside one page (every aligned load and store) calls
   them directly; only a span crossing a page boundary goes through
   [segments], so the common case builds no closure. *)

let clear_seg p off n = Bytes.fill p (off * slot_size) (n * slot_size) '\000'

let fill_seg p off n id =
  for i = off to off + n - 1 do
    Bytes.set_int32_le p (i * slot_size) (Int32.of_int id)
  done

let count_seg p off n first =
  for i = 0 to n - 1 do
    Bytes.set_int32_le p ((off + i) * slot_size) (Int32.of_int (first + i))
  done

let rec scan_seg p i stop =
  if i >= stop then 0
  else
    let id = Int32.to_int (Bytes.get_int32_le p (i * slot_size)) in
    if id <> 0 then id else scan_seg p (i + 1) stop

let in_one_page addr len = off_of addr + len <= page_bytes

let set_range t ~addr ~len ~id =
  if len > 0 then
    if id = 0 then
      if in_one_page addr len then begin
        let p = find t addr in
        if not (missing p) then clear_seg p (off_of addr) len
      end
      else segments t ~addr ~len ~skip_missing:true (fun p off n _ -> clear_seg p off n)
    else if in_one_page addr len then fill_seg (page t addr) (off_of addr) len id
    else segments t ~addr ~len ~skip_missing:false (fun p off n _ -> fill_seg p off n id)

let set_span t ~addr ~len ~first =
  if len > 0 then
    if in_one_page addr len then count_seg (page t addr) (off_of addr) len first
    else
      segments t ~addr ~len ~skip_missing:false (fun p off n base ->
          count_seg p off n (first + base))

let first_id t ~addr ~len =
  if len <= 0 then 0
  else if in_one_page addr len then begin
    let p = find t addr in
    if missing p then 0
    else
      let off = off_of addr in
      scan_seg p off (off + len)
  end
  else begin
    let found = ref 0 in
    (try
       segments t ~addr ~len ~skip_missing:true (fun p off n _ ->
           let id = scan_seg p off (off + n) in
           if id <> 0 then begin
             found := id;
             raise Exit
           end)
     with Exit -> ());
    !found
  end

let allocated_pages = Memory.allocated_pages

(* fork copies provenance alongside memory: the child's memory image is
   a byte copy, so its shadow must match *)
let clone = Memory.clone

(* checkpoint/restore: ascending keys, all-zero pages elided (a missing
   page reads as id 0 everywhere) *)
let fold_pages = Memory.fold_pages

let load_page t key data =
  if String.length data <> page_size then
    invalid_arg "Provenance.load_page: wrong page size";
  Memory.load_page t key data
