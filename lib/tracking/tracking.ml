module Reg = Shift_isa.Reg
module Memory = Shift_mem.Memory
module Taint = Shift_mem.Taint
module Granularity = Shift_mem.Granularity
module Policy = Shift_policy.Policy
module Alert = Shift_policy.Alert

(* ---------- static backend profiles ---------- *)

module type S = sig
  val backend : Backend.t

  val per_instr : bool
  (** The backend needs a hook on every retired instruction. *)

  val sources : bool
  (** Input syscalls mark their buffers tainted. *)

  val checks : bool
  (** Security policies (low-level and high-level) are evaluated. *)
end

module Nat = struct
  let backend = Backend.Nat
  let per_instr = false
  let sources = true
  let checks = true
end

module Coproc = struct
  let backend = Backend.Coproc
  let per_instr = true
  let sources = true
  let checks = true
end

module Off = struct
  let backend = Backend.Off
  let per_instr = false
  let sources = false
  let checks = false
end

let profile : Backend.t -> (module S) = function
  | Backend.Nat -> (module Nat)
  | Backend.Coproc -> (module Coproc)
  | Backend.Off -> (module Off)

(* ---------- tag-queue records ---------- *)

type check = Load_address | Store_address | Branch_target | Call_target

let check_to_string = function
  | Load_address -> "load address"
  | Store_address -> "store address"
  | Branch_target -> "branch target"
  | Call_target -> "call target"

let check_of_string = function
  | "load address" -> Some Load_address
  | "store address" -> Some Store_address
  | "branch target" -> Some Branch_target
  | "call target" -> Some Call_target
  | _ -> None

type record =
  | Set of { dst : int; tainted : bool }
  | Move of { dst : int; src : int }
  | Union of { dst : int; s1 : int; s2 : int }
  | Load of { dst : int; addr : int64; len : int }
  | Store of { addr : int64; len : int; src : int }
  | Check of { what : check; reg : int }

type stats = {
  mutable enqueued : int;
  mutable drained : int;
  mutable stalls : int;
  mutable stall_cycles : int;
  mutable checks : int;
  mutable alerts : int;
  mutable max_lag : int;
  mutable last_alert_lag : int;
}

let fresh_stats () =
  {
    enqueued = 0;
    drained = 0;
    stalls = 0;
    stall_cycles = 0;
    checks = 0;
    alerts = 0;
    max_lag = 0;
    last_alert_lag = 0;
  }

(* The tag queue is a ring of fixed-width unboxed slots, so a push and
   a drain allocate nothing.  Slot [i] is the [stride] ints at
   [i * stride] of [ring] — the record kind, three operands and the
   retired count at enqueue — plus, for Load and Store records, the
   int64 address in the 8 bytes at [i * 8] of [addrs].  The ring's
   length is a power of two: it starts at [min_slots] and doubles up to
   the first power of two covering [capacity] when the queue outgrows
   it, so memory follows the queue's real depth and no capacity, however
   large, is allocated up front. *)
let stride = 5
let min_slots = 16

let k_set = 0 (* dst, tainted (0/1) *)
let k_move = 1 (* dst, src *)
let k_union = 2 (* dst, s1, s2 *)
let k_load = 3 (* dst, len; address *)
let k_store = 4 (* src, len; address *)
let k_check = 5 (* check index, reg *)

let check_index = function
  | Load_address -> 0
  | Store_address -> 1
  | Branch_target -> 2
  | Call_target -> 3

let check_of_index = [| Load_address; Store_address; Branch_target; Call_target |]

type t = {
  backend : Backend.t;
  per_instr : bool;
  sources : bool;
  checks : bool;
  low_level : bool;
  capacity : int;
  drain_rate : int;
  stall_penalty : int;
  regs : bool array;  (* coproc-private register tag file *)
  mutable ring : int array;
  mutable addrs : Bytes.t;
  mutable mask : int;  (* ring slots - 1 *)
  mutable head : int;  (* slot of the oldest record *)
  mutable len : int;
  mutable retired : int;
  mutable pending_stall : int;
  stats : stats;
  mem : Memory.t option;
}

let default_capacity = 256
let default_drain_rate = 2
let default_stall_penalty = 4

let create ?(low_level = true) ?(capacity = default_capacity)
    ?(drain_rate = default_drain_rate) ?(stall_penalty = default_stall_penalty)
    ?mem ~backend () =
  let module P = (val profile backend) in
  let slots = if P.per_instr then min_slots else 1 in
  {
    backend;
    per_instr = P.per_instr;
    sources = P.sources;
    checks = P.checks;
    low_level;
    capacity = max 1 capacity;
    drain_rate = max 1 drain_rate;
    stall_penalty = max 0 stall_penalty;
    regs = (if P.per_instr then Array.make Reg.count false else [||]);
    ring = Array.make (slots * stride) 0;
    addrs = Bytes.make (slots * 8) '\000';
    mask = slots - 1;
    head = 0;
    len = 0;
    retired = 0;
    pending_stall = 0;
    stats = fresh_stats ();
    mem;
  }

let default = create ~backend:Backend.Nat ()

let backend t = t.backend
let per_instr t = t.per_instr
let sources_on t = t.sources
let checks_on t = t.checks
let low_level_checks t = t.checks && t.low_level
let capacity t = t.capacity
let stats t = t.stats
let queue_length t = t.len
let reg_tag t r = t.per_instr && t.regs.(r)

let mem_exn t =
  match t.mem with
  | Some m -> m
  | None -> invalid_arg "Tracking: tag coprocessor has no memory binding"

let coproc_alert what ~lag =
  let base =
    match Policy.alert_of_fault (check_to_string what) with
    | Some a -> a
    | None -> Alert.make ~policy:"L?" "tag coprocessor check"
  in
  {
    base with
    Alert.message =
      Printf.sprintf "%s (tag coprocessor, drain lag %d)" base.Alert.message lag;
  }

(* Double the ring, unrolling the queue to start at slot 0. *)
let grow t =
  let slots = t.mask + 1 in
  let ring = Array.make (2 * slots * stride) 0 in
  let addrs = Bytes.make (2 * slots * 8) '\000' in
  for k = 0 to t.len - 1 do
    let i = (t.head + k) land t.mask in
    Array.blit t.ring (i * stride) ring (k * stride) stride;
    Bytes.blit t.addrs (i * 8) addrs (k * 8) 8
  done;
  t.ring <- ring;
  t.addrs <- addrs;
  t.mask <- (2 * slots) - 1;
  t.head <- 0

(* Append one record at the tail; returns its slot for the address.
   Slot offsets are masked into the ring, so its accesses are unchecked. *)
let put t kind a b c ~at =
  if t.len > t.mask then grow t;
  let i = (t.head + t.len) land t.mask in
  let o = i * stride in
  let r = t.ring in
  Array.unsafe_set r o kind;
  Array.unsafe_set r (o + 1) a;
  Array.unsafe_set r (o + 2) b;
  Array.unsafe_set r (o + 3) c;
  Array.unsafe_set r (o + 4) at;
  t.len <- t.len + 1;
  i

let put_record t (r : record) ~at =
  match r with
  | Set { dst; tainted } -> ignore (put t k_set dst (Bool.to_int tainted) 0 ~at)
  | Move { dst; src } -> ignore (put t k_move dst src 0 ~at)
  | Union { dst; s1; s2 } -> ignore (put t k_union dst s1 s2 ~at)
  | Load { dst; addr; len } ->
      Bytes.set_int64_le t.addrs (8 * put t k_load dst len 0 ~at) addr
  | Store { addr; len; src } ->
      Bytes.set_int64_le t.addrs (8 * put t k_store src len 0 ~at) addr
  | Check { what; reg } -> ignore (put t k_check (check_index what) reg 0 ~at)

let record_at t i =
  let o = i * stride in
  let r = t.ring in
  let a = r.(o + 1) and b = r.(o + 2) in
  let kind = r.(o) in
  if kind = k_set then Set { dst = a; tainted = b <> 0 }
  else if kind = k_move then Move { dst = a; src = b }
  else if kind = k_union then Union { dst = a; s1 = b; s2 = r.(o + 3) }
  else if kind = k_load then
    Load { dst = a; addr = Bytes.get_int64_le t.addrs (i * 8); len = b }
  else if kind = k_store then
    Store { addr = Bytes.get_int64_le t.addrs (i * 8); len = b; src = a }
  else Check { what = check_of_index.(a); reg = b }

(* Pop the oldest record and apply it against the coprocessor's own tag
   state.  r0 is hard-wired clean; it doubles as the "no second
   operand" slot in Union records. *)
let apply_head t =
  let i = t.head in
  let o = i * stride in
  let r = t.ring in
  let kind = Array.unsafe_get r o
  and a = Array.unsafe_get r (o + 1)
  and b = Array.unsafe_get r (o + 2) in
  let lag = t.retired - Array.unsafe_get r (o + 4) in
  t.head <- (i + 1) land t.mask;
  t.len <- t.len - 1;
  if lag > t.stats.max_lag then t.stats.max_lag <- lag;
  t.stats.drained <- t.stats.drained + 1;
  let regs = t.regs in
  if kind = k_set then (if a <> Reg.zero then regs.(a) <- b <> 0)
  else if kind = k_move then (if a <> Reg.zero then regs.(a) <- regs.(b))
  else if kind = k_union then
    (if a <> Reg.zero then regs.(a) <- regs.(b) || regs.(Array.unsafe_get r (o + 3)))
  else if kind = k_load then begin
    if a <> Reg.zero then
      regs.(a) <-
        Taint.any_tainted (mem_exn t) Granularity.Byte
          ~addr:(Bytes.get_int64_le t.addrs (i * 8))
          ~len:b
  end
  else if kind = k_store then
    Taint.set_range (mem_exn t) Granularity.Byte
      ~addr:(Bytes.get_int64_le t.addrs (i * 8))
      ~len:b ~tainted:regs.(a)
  else begin
    t.stats.checks <- t.stats.checks + 1;
    if regs.(b) then begin
      t.stats.alerts <- t.stats.alerts + 1;
      t.stats.last_alert_lag <- lag;
      raise (Alert.Violation (coproc_alert check_of_index.(a) ~lag))
    end
  end

let drain t n =
  for _ = 1 to min n t.len do
    apply_head t
  done

let tick t =
  t.retired <- t.retired + 1;
  drain t t.drain_rate

(* Make room for one more record: on a full queue the core stalls while
   the coprocessor forces one record out. *)
let reserve t =
  if t.len >= t.capacity then begin
    t.stats.stalls <- t.stats.stalls + 1;
    t.stats.stall_cycles <- t.stats.stall_cycles + t.stall_penalty;
    t.pending_stall <- t.pending_stall + t.stall_penalty;
    drain t 1
  end;
  t.stats.enqueued <- t.stats.enqueued + 1

let push_set t ~dst ~tainted =
  reserve t;
  ignore (put t k_set dst (if tainted then 1 else 0) 0 ~at:t.retired)

let push_move t ~dst ~src =
  reserve t;
  ignore (put t k_move dst src 0 ~at:t.retired)

let push_union t ~dst ~s1 ~s2 =
  reserve t;
  ignore (put t k_union dst s1 s2 ~at:t.retired)

let push_load t ~dst ~addr ~len =
  reserve t;
  Bytes.set_int64_le t.addrs (8 * put t k_load dst len 0 ~at:t.retired) addr

let push_store t ~addr ~len ~src =
  reserve t;
  Bytes.set_int64_le t.addrs (8 * put t k_store src len 0 ~at:t.retired) addr

let push_check t what ~reg =
  reserve t;
  ignore (put t k_check (check_index what) reg 0 ~at:t.retired)

let push t r =
  reserve t;
  put_record t r ~at:t.retired

let flush t = drain t max_int

let take_stall t =
  let s = t.pending_stall in
  t.pending_stall <- 0;
  s

(* ---------- snapshot support ---------- *)

type dump = {
  d_regs : bool array;
  d_queue : (record * int) list;
  d_retired : int;
  d_pending_stall : int;
}

let export t =
  {
    d_regs = Array.copy t.regs;
    d_queue =
      List.init t.len (fun k ->
          let i = (t.head + k) land t.mask in
          (record_at t i, t.ring.((i * stride) + 4)));
    d_retired = t.retired;
    d_pending_stall = t.pending_stall;
  }

let import t (d : dump) =
  if Array.length d.d_regs <> Array.length t.regs then
    invalid_arg "Tracking.import: register tag file size mismatch";
  if List.length d.d_queue > t.capacity then
    invalid_arg "Tracking.import: queue longer than its capacity";
  Array.blit d.d_regs 0 t.regs 0 (Array.length d.d_regs);
  t.head <- 0;
  t.len <- 0;
  List.iter (fun (r, at) -> put_record t r ~at) d.d_queue;
  t.retired <- d.d_retired;
  t.pending_stall <- d.d_pending_stall
