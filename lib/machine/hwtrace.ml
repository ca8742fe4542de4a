(* The hardware observation trace: one entry per architecturally
   executed guest load/store that touches the L1D model, recording the
   cache-set index the access mapped to (what a prime+probe attacker
   observes) plus the hit/miss bit.  Both execution engines — the
   interpreter step in cpu.ml and the fused superblock closures — emit
   through [record] at the same program points, so the trace is
   identical with the compiler on or off; the QCheck gate in
   test_superblock.ml holds that invariant.

   Entries also carry the Flowtrace id of the *address* register at the
   moment of the access.  When a trace divergence is found, that id is
   what lets the leak detector walk the provenance chain back to the
   exact tainted input bytes that steered the access (Leak.detect).

   Entries are stored unboxed, [stride] ints each in one flat array:
   pc, set, flags (hit, store) and prov.  [record] writes four slots and
   allocates nothing except when the array doubles; the [entry] record
   is only built on demand by [get] and [entries].

   A trace can instead *follow* a reference trace ([follow]).  It then
   stores nothing: each [record] compares the clause-visible (store,
   set) pair with the reference's entry at the same index and keeps only
   the count and the index of the first mismatch.  The leak detector
   observes its variants this way, so deciding that two runs agree
   costs no trace memory at all. *)

type entry = {
  e_pc : int;  (* guest pc of the load/store *)
  e_set : int;  (* cache-set index the address mapped to *)
  e_hit : bool;
  e_store : bool;
  e_prov : int;  (* Flowtrace id of the address register; 0 = clean *)
}

type t = {
  mutable enabled : bool;
  mutable data : int array;
  mutable len : int;
  mutable dropped : int;
  limit : int;
  mutable reference : t option;
  mutable mismatch : int;  (* first index whose (store, set) differs; -1 = none *)
}

let default_limit = 1 lsl 20
let stride = 4
let first_capacity = 256 (* entries *)
let hit_flag = 1
let store_flag = 2

let disabled () =
  {
    enabled = false;
    data = [||];
    len = 0;
    dropped = 0;
    limit = 0;
    reference = None;
    mismatch = -1;
  }

let create ?(limit = default_limit) () =
  {
    enabled = true;
    data = Array.make (stride * first_capacity) 0;
    len = 0;
    dropped = 0;
    limit;
    reference = None;
    mismatch = -1;
  }

let follow t ~reference =
  if t.len <> 0 || t.dropped <> 0 then invalid_arg "Hwtrace.follow: the trace is not empty";
  if Option.is_some reference.reference then
    invalid_arg "Hwtrace.follow: the reference follows a trace itself";
  t.reference <- Some reference;
  t.data <- [||];
  t.mismatch <- -1

(* A follower compares until its first mismatch.  Past the reference's
   end there is nothing to compare: the lengths tell the rest. *)
let compare_next t r ~set ~store =
  let i = t.len in
  if t.mismatch < 0 && i < r.len then begin
    let o = stride * i in
    let r_store = Array.unsafe_get r.data (o + 2) land store_flag <> 0 in
    if Array.unsafe_get r.data (o + 1) <> set || r_store <> store then t.mismatch <- i
  end

let append t ~pc ~set ~hit ~store ~prov =
  let o = stride * t.len in
  if o = Array.length t.data then begin
    let grown = Array.make (max (stride * first_capacity) (2 * o)) 0 in
    Array.blit t.data 0 grown 0 o;
    t.data <- grown
  end;
  let d = t.data in
  Array.unsafe_set d o pc;
  Array.unsafe_set d (o + 1) set;
  Array.unsafe_set d (o + 2)
    ((if hit then hit_flag else 0) lor if store then store_flag else 0);
  Array.unsafe_set d (o + 3) prov

let record t ~pc ~set ~hit ~store ~prov =
  if t.len >= t.limit then t.dropped <- t.dropped + 1
  else begin
    (match t.reference with
    | None -> append t ~pc ~set ~hit ~store ~prov
    | Some r -> compare_next t r ~set ~store);
    t.len <- t.len + 1
  end

let length t = t.len
let dropped t = t.dropped
let first_mismatch t = if t.mismatch < 0 then None else Some t.mismatch

let field t i k =
  if Option.is_some t.reference then invalid_arg "Hwtrace: a following trace holds no entries";
  if i < 0 || i >= t.len then invalid_arg "Hwtrace: index out of range";
  Array.unsafe_get t.data ((stride * i) + k)

let pc t i = field t i 0
let set t i = field t i 1
let hit t i = field t i 2 land hit_flag <> 0
let store t i = field t i 2 land store_flag <> 0
let prov t i = field t i 3

let get t i =
  { e_pc = pc t i; e_set = set t i; e_hit = hit t i; e_store = store t i; e_prov = prov t i }

let entries t = Array.init t.len (get t)

let clear t =
  t.len <- 0;
  t.dropped <- 0;
  t.mismatch <- -1
