(* Paged per-byte source-id shadow.  One page covers the same 4096 guest
   bytes as a Memory page and stores one little-endian int32 id per
   byte; pages appear on first write and are never freed, so a cached
   TLB entry can never go stale (same argument as Memory's TLB).  The
   TLB is direct-mapped with 64 entries, mirroring Memory: the tracing
   hooks touch the data span and its shadow span in alternation, and a
   single entry thrashes on exactly that pattern. *)

let page_bytes = Memory.page_size (* guest bytes per page *)
let page_shift = 12 (* log2 page_bytes, same key space as Memory *)
let page_mask = Int64.of_int (page_bytes - 1)
let slot_size = 4 (* shadow bytes per guest byte *)
let page_size = page_bytes * slot_size

let tlb_bits = 6
let tlb_size = 1 lsl tlb_bits

type t = {
  pages : (int64, bytes) Hashtbl.t;
  tlb_keys : int64 array; (* page key per slot; -1 = empty (keys are >= 0) *)
  tlb_pages : bytes array;
}

let no_page = Bytes.create 0

let create () =
  {
    pages = Hashtbl.create 64;
    tlb_keys = Array.make tlb_size (-1L);
    tlb_pages = Array.make tlb_size no_page;
  }

let key_of a = Int64.shift_right_logical a page_shift
let off_of a = Int64.to_int (Int64.logand a page_mask)

let find t a =
  let key = key_of a in
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

let page t a =
  let key = key_of a in
  let slot = Int64.to_int key land (tlb_size - 1) in
  if Int64.equal (Array.unsafe_get t.tlb_keys slot) key then
    Array.unsafe_get t.tlb_pages slot
  else begin
    let p =
      match Hashtbl.find_opt t.pages key with
      | Some p -> p
      | None ->
          let p = Bytes.make (page_bytes * slot_size) '\000' in
          Hashtbl.add t.pages key p;
          p
    in
    Array.unsafe_set t.tlb_keys slot key;
    Array.unsafe_set t.tlb_pages slot p;
    p
  end

let get t a =
  let p = find t a in
  if p == no_page then 0
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
      if not (skip_missing && p == no_page) then f p off n pos;
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
        if p != no_page then clear_seg p (off_of addr) len
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
    if p == no_page then 0
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

let allocated_pages t = Hashtbl.length t.pages

(* Deep copy for fork: the child inherits the parent's per-byte source
   ids (its memory image is a byte copy, so the shadow must match). *)
let clone t =
  let c = create () in
  Hashtbl.iter (fun key p -> Hashtbl.add c.pages key (Bytes.copy p)) t.pages;
  c

(* Page iteration for checkpoint/restore: ascending key order, all-zero
   pages elided (a missing page reads as id 0 everywhere). *)

let zero_page = Bytes.make (page_bytes * slot_size) '\000'

let fold_pages t ~init ~f =
  let keys =
    Hashtbl.fold (fun k _ acc -> k :: acc) t.pages []
    |> List.sort Int64.unsigned_compare
  in
  List.fold_left
    (fun acc key ->
      let p = Hashtbl.find t.pages key in
      if Bytes.equal p zero_page then acc else f acc key p)
    init keys

let load_page t key data =
  if String.length data <> page_bytes * slot_size then
    invalid_arg "Provenance.load_page: wrong page size";
  let p =
    match Hashtbl.find_opt t.pages key with
    | Some p -> p
    | None ->
        let p = Bytes.make (page_bytes * slot_size) '\000' in
        Hashtbl.add t.pages key p;
        p
  in
  Bytes.blit_string data 0 p 0 (page_bytes * slot_size)
