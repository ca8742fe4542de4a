open Shift_isa
module Tracking = Shift_tracking.Tracking

type t = {
  program : Program.t;
  decoded : Decode.t;
  code : code;
  mem : Shift_mem.Memory.t;
  values : int64 array;
  nats : bool array;
  preds : bool array;
  mutable unat : int64;
  mutable ip : int;
  stats : Stats.t;
  pipe : Pipeline.t;
  cache : Cache.t;
  mutable syscall_handler : (t -> unit) option;
  mutable flowtrace : Flowtrace.t;
  ftregs : Flowtrace.regs;
  mutable hwtrace : Hwtrace.t;
  call_stack : (int * int64) Stack.t;
  sb : sb;
  mutable tracking : Tracking.t;
}

(* The program's code: decoded once and shared, with its block tables,
   by every machine that runs it (see {!Superblock}).  Nothing in it
   refers to a machine, so it outlives none. *)
and code = {
  code_program : Program.t;
  code_decoded : Decode.t;
  code_tables : sb_block option array array;  (* per block key; [||] until used *)
  code_lock : Mutex.t;                         (* serialises table publication *)
}

(* Per-machine superblock state: heat, counters, and which table this
   machine dispatches through. *)
and sb = {
  mutable sb_on : bool;
  sb_hot : int array;                      (* per-entry-pc execution counts *)
  mutable sb_blocks : sb_block option array;
      (* the code's shared table for [sb_key], or this machine's private
         copy once its guest wrote the code region *)
  mutable sb_key : int;                    (* block key selected; -1 = none yet *)
  mutable sb_private : bool;               (* [sb_blocks] is a private copy *)
  sb_stats : Stats.superblocks;
}

and sb_block = {
  sb_entry : int;
  sb_len : int;
  sb_ft : bool;              (* flowtrace.enabled the block was compiled for *)
  sb_provs : int array;      (* per-instruction provenance index, for unwinds *)
  sb_prov_counts : int array;(* per-provenance slot counts for the whole block *)
  sb_body : t -> unit;       (* straight-line compiled body *)
}

type outcome =
  | Exited of int64
  | Faulted of Fault.t * int
  | Out_of_fuel

exception Exit_requested of int64
exception Fault_exn of Fault.t
exception Halt_exn of int64

let branch_penalty = 1
let chk_penalty = 5
let syscall_overhead = 100
let call_stack_limit = 100_000

(* two Flowtrace settings times three backend profiles (plain, tag
   mirror, tag mirror with low-level checks) *)
let block_keys = 6

let code_of_program program =
  {
    code_program = program;
    code_decoded = Decode.of_program program;
    code_tables = Array.make block_keys [||];
    code_lock = Mutex.create ();
  }

let of_code ?(entry = "_start") ?mem code =
  let program = code.code_program in
  let preds = Array.make Pred.count false in
  preds.(Pred.p0) <- true;
  {
    program;
    decoded = code.code_decoded;
    code;
    mem = (match mem with Some m -> m | None -> Shift_mem.Memory.create ());
    values = Array.make Reg.count 0L;
    nats = Array.make Reg.count false;
    preds;
    unat = 0L;
    ip = (if Program.has_label program entry then Program.target program entry else 0);
    stats = Stats.create ();
    pipe = Pipeline.create ();
    cache = Cache.create ();
    syscall_handler = None;
    flowtrace = Flowtrace.disabled ();
    ftregs = Flowtrace.fresh_regs ();
    hwtrace = Hwtrace.disabled ();
    call_stack = Stack.create ();
    sb =
      {
        sb_on = true;
        sb_hot = Array.make (Program.size program) 0;
        sb_blocks = [||];
        sb_key = -1;
        sb_private = false;
        sb_stats = Stats.sb_create ();
      };
    tracking = Tracking.default;
  }

let create ?entry ?mem program = of_code ?entry ?mem (code_of_program program)

let get_value t r = t.values.(r)

let set_value t r v = if r <> Reg.zero then t.values.(r) <- v

let get_nat t r = t.nats.(r)

let set_nat t r b = if r <> Reg.zero then t.nats.(r) <- b

let add_io_cycles t n =
  t.stats.io_cycles <- t.stats.io_cycles + n;
  Pipeline.stall t.pipe n

let shift_amount b = Int64.to_int (Int64.logand b 63L)

let eval_arith a x y =
  match (a : Instr.arith) with
  | Instr.Add -> Int64.add x y
  | Instr.Sub -> Int64.sub x y
  | Instr.Mul -> Int64.mul x y
  | Instr.Div ->
      if Int64.equal y 0L then raise (Fault_exn Fault.Div_by_zero)
      else if Int64.equal y (-1L) then Int64.neg x
      else Int64.div x y
  | Instr.Rem ->
      if Int64.equal y 0L then raise (Fault_exn Fault.Div_by_zero)
      else if Int64.equal y (-1L) then 0L
      else Int64.rem x y
  | Instr.And -> Int64.logand x y
  | Instr.Or -> Int64.logor x y
  | Instr.Xor -> Int64.logxor x y
  | Instr.Andcm -> Int64.logand x (Int64.lognot y)
  | Instr.Shl -> Int64.shift_left x (shift_amount y)
  | Instr.Shr -> Int64.shift_right_logical x (shift_amount y)
  | Instr.Sar -> Int64.shift_right x (shift_amount y)

let operand_value t = function
  | Instr.R r -> t.values.(r)
  | Instr.Imm i -> i

let operand_nat t = function
  | Instr.R r -> t.nats.(r)
  | Instr.Imm _ -> false

let set_pred t p b = if p <> Pred.p0 then t.preds.(p) <- b

let unat_bit addr = Int64.to_int (Int64.logand (Int64.shift_right_logical addr 3) 63L)

let goto t target =
  t.ip <- target;
  t.stats.branches <- t.stats.branches + 1;
  Pipeline.redirect t.pipe ~penalty:branch_penalty

let push_call t =
  if Stack.length t.call_stack >= call_stack_limit then
    raise (Fault_exn Fault.Call_stack_overflow);
  Stack.push (t.ip + 1, t.unat) t.call_stack

let indirect_target t v =
  let n = Int64.to_int v in
  if Int64.compare v 0L < 0 || n >= Program.size t.program then
    raise (Fault_exn (Fault.Invalid_branch v));
  n

(* Executes the functional effect of one instruction whose qualifying
   predicate is true, and advances [t.ip].  [d.target] carries the
   pre-resolved label target for the branch-like operations, so the hot
   loop never consults the label table. *)
let exec_op t (d : Decode.info) =
  (* Flowtrace hooks fire only for original-program instructions whose
     trace is enabled: one load-and-branch here when tracing is off, and
     the SHIFT instrumentation (non-Orig provenance) stays transparent
     to the provenance shadow. *)
  let ft = t.flowtrace in
  let ft_on = ft.Flowtrace.enabled && d.Decode.prov_index = 0 in
  match d.Decode.op with
  | Instr.Nop ->
      t.ip <- t.ip + 1
  | Instr.Halt -> raise (Halt_exn t.values.(Reg.ret))
  | Instr.Movi (d, v) ->
      set_value t d v;
      set_nat t d false;
      if ft_on then Flowtrace.on_const ft t.ftregs ~dst:d;
      t.ip <- t.ip + 1
  | Instr.Mov (d, s) ->
      set_value t d t.values.(s);
      set_nat t d t.nats.(s);
      if ft_on then Flowtrace.on_move ft t.ftregs ~ip:t.ip ~dst:d ~src:s;
      t.ip <- t.ip + 1
  | Instr.Lea (dst, _) ->
      set_value t dst (Int64.of_int d.Decode.target);
      set_nat t dst false;
      if ft_on then Flowtrace.on_const ft t.ftregs ~dst;
      t.ip <- t.ip + 1
  | Instr.Arith (a, dst, s1, o) ->
      let v = eval_arith a t.values.(s1) (operand_value t o) in
      (* xor r = s, s and sub r = s, s are the recognised clear idioms
         (paper §3.3.2): the result does not depend on the source value,
         so the taint is purged. *)
      let clear_idiom =
        match (a, o) with
        | (Instr.Xor | Instr.Sub), Instr.R s2 -> s1 = s2
        | _ -> false
      in
      let nat =
        (not clear_idiom) && (t.nats.(s1) || operand_nat t o)
      in
      set_value t dst v;
      set_nat t dst nat;
      if ft_on then
        Flowtrace.on_arith ft t.ftregs ~ip:t.ip ~dst ~src1:s1
          ~src2:(match o with Instr.R r -> Some r | Instr.Imm _ -> None)
          ~clear:clear_idiom;
      t.ip <- t.ip + 1
  | Instr.Cmp { cond; pt; pf; src1; src2; taint_aware } ->
      let nat = t.nats.(src1) || operand_nat t src2 in
      if nat && not taint_aware then begin
        (* Baseline deferred-exception behaviour: survive speculation
           failure by clearing both branch predicates. *)
        set_pred t pt false;
        set_pred t pf false
      end
      else begin
        let r = Cond.eval cond t.values.(src1) (operand_value t src2) in
        set_pred t pt r;
        set_pred t pf (not r)
      end;
      t.ip <- t.ip + 1
  | Instr.Tnat { pt; pf; src } ->
      set_pred t pt t.nats.(src);
      set_pred t pf (not t.nats.(src));
      if ft_on then
        Flowtrace.on_check ft t.ftregs ~ip:t.ip ~src ~tainted:t.nats.(src);
      t.ip <- t.ip + 1
  | Instr.Extr { dst; src; pos; len } ->
      (* a full-width extract (len = 64) must keep all 64 bits; shifting
         1L by (len land 63) = 0 would compute an empty mask *)
      let mask =
        if len >= 64 then -1L else Int64.sub (Int64.shift_left 1L (len land 63)) 1L
      in
      set_value t dst (Int64.logand (Int64.shift_right_logical t.values.(src) (pos land 63)) mask);
      set_nat t dst t.nats.(src);
      if ft_on then Flowtrace.on_move ft t.ftregs ~ip:t.ip ~dst ~src;
      t.ip <- t.ip + 1
  | Instr.Ld { width; dst; addr; spec; fill } ->
      let a = t.values.(addr) in
      let invalid = t.nats.(addr) || not (Shift_mem.Addr.is_valid a) in
      if invalid then
        if spec then begin
          set_value t dst 0L;
          set_nat t dst true;
          if ft_on then Flowtrace.on_spec_nat ft t.ftregs ~ip:t.ip ~dst
        end
        else if t.nats.(addr) then
          raise (Fault_exn (Fault.Nat_consumption Fault.Load_address))
        else raise (Fault_exn (Fault.Invalid_address a))
      else begin
        let v = Shift_mem.Memory.read t.mem a ~width:(Instr.bytes_of_width width) in
        set_value t dst v;
        set_nat t dst (fill && Int64.logand (Int64.shift_right_logical t.unat (unat_bit a)) 1L = 1L);
        t.stats.loads <- t.stats.loads + 1;
        if ft_on then
          Flowtrace.on_load ft t.ftregs ~ip:t.ip ~dst ~addr:a
            ~len:(Instr.bytes_of_width width)
      end;
      t.ip <- t.ip + 1
  | Instr.St { width; addr; src; spill } ->
      let a = t.values.(addr) in
      if t.nats.(addr) then
        raise (Fault_exn (Fault.Nat_consumption Fault.Store_address));
      if not (Shift_mem.Addr.is_valid a) then
        raise (Fault_exn (Fault.Invalid_address a));
      if t.nats.(src) && not spill then
        raise (Fault_exn (Fault.Nat_consumption Fault.Store_value));
      if spill then begin
        let bit = unat_bit a in
        let mask = Int64.shift_left 1L bit in
        t.unat <-
          (if t.nats.(src) then Int64.logor t.unat mask
           else Int64.logand t.unat (Int64.lognot mask))
      end;
      Shift_mem.Memory.write t.mem a ~width:(Instr.bytes_of_width width) t.values.(src);
      t.stats.stores <- t.stats.stores + 1;
      if ft_on then
        Flowtrace.on_store ft t.ftregs ~ip:t.ip ~src ~addr:a
          ~len:(Instr.bytes_of_width width);
      t.ip <- t.ip + 1
  | Instr.Chk_s { src; _ } ->
      if ft_on then
        Flowtrace.on_check ft t.ftregs ~ip:t.ip ~src ~tainted:t.nats.(src);
      if t.nats.(src) then begin
        t.ip <- d.Decode.target;
        t.stats.branches <- t.stats.branches + 1;
        Pipeline.redirect t.pipe ~penalty:chk_penalty
      end
      else t.ip <- t.ip + 1
  | Instr.Br _ -> goto t d.Decode.target
  | Instr.Br_reg r ->
      if t.nats.(r) then
        raise (Fault_exn (Fault.Nat_consumption Fault.Branch_target));
      goto t (indirect_target t t.values.(r))
  | Instr.Call _ ->
      push_call t;
      goto t d.Decode.target
  | Instr.Call_reg r ->
      if t.nats.(r) then
        raise (Fault_exn (Fault.Nat_consumption Fault.Call_target));
      let target = indirect_target t t.values.(r) in
      push_call t;
      goto t target
  | Instr.Ret ->
      if Stack.is_empty t.call_stack then
        raise (Fault_exn Fault.Call_stack_underflow);
      let rip, unat = Stack.pop t.call_stack in
      t.unat <- unat;
      goto t rip
  | Instr.Fetchadd { dst; addr; inc } ->
      let a = t.values.(addr) in
      if t.nats.(addr) then
        raise (Fault_exn (Fault.Nat_consumption Fault.Load_address));
      if not (Shift_mem.Addr.is_valid a) then raise (Fault_exn (Fault.Invalid_address a));
      let old = Shift_mem.Memory.read t.mem a ~width:8 in
      Shift_mem.Memory.write t.mem a ~width:8 (Int64.add old t.values.(inc));
      set_value t dst old;
      set_nat t dst false;
      t.stats.loads <- t.stats.loads + 1;
      t.stats.stores <- t.stats.stores + 1;
      if ft_on then Flowtrace.on_load ft t.ftregs ~ip:t.ip ~dst ~addr:a ~len:8;
      t.ip <- t.ip + 1
  | Instr.Setnat r ->
      (* under a per-instruction backend the marker is a coprocessor
         directive (mirrored by track_op), not a real NaT write — a
         stray NaT in uninstrumented code would fault *)
      if not (Tracking.per_instr t.tracking) then set_nat t r true;
      if ft_on then Flowtrace.on_setnat ft t.ftregs ~ip:t.ip ~reg:r;
      t.ip <- t.ip + 1
  | Instr.Clrnat r ->
      if not (Tracking.per_instr t.tracking) then set_nat t r false;
      if ft_on then Flowtrace.on_clrnat ft t.ftregs ~ip:t.ip ~reg:r;
      t.ip <- t.ip + 1
  | Instr.Syscall ->
      t.stats.syscalls <- t.stats.syscalls + 1;
      Pipeline.stall t.pipe syscall_overhead;
      (match t.syscall_handler with
      | Some h -> h t
      | None -> ());
      (* the handler wrote the return value; whatever provenance the
         register carried before the call no longer describes it *)
      if ft.Flowtrace.enabled then begin
        t.ftregs.Flowtrace.id.(Reg.ret) <- 0;
        t.ftregs.Flowtrace.depth.(Reg.ret) <- 0;
        t.ftregs.Flowtrace.washed.(Reg.ret) <- 0
      end;
      t.ip <- t.ip + 1

(* hand the tag queue's accrued stall to the pipeline *)
let charge_stall t tk =
  let stall = Tracking.take_stall tk in
  if stall > 0 then Pipeline.stall t.pipe stall

(* Mirror of [exec_op]'s taint semantics for the decoupled tag
   coprocessor (Tracking backend [coproc]): the guest runs
   uninstrumented while the core emits one propagation record per
   retiring instruction onto the asynchronous tag queue.  The mirror
   reads operands pre-execution — the same values [exec_op] is about to
   consume — and only for addresses [exec_op] would accept, so a
   faulting instruction enqueues nothing.  Syscalls are a
   synchronisation barrier: the queue is flushed before the OS model
   runs, keeping the H1–H5 sink checks exact. *)
let track_op t (d : Decode.info) =
  let tk = t.tracking in
  let checks = Tracking.low_level_checks tk in
  (match d.Decode.op with
  | Instr.Nop | Instr.Halt | Instr.Cmp _ | Instr.Tnat _ | Instr.Chk_s _
  | Instr.Br _ | Instr.Call _ | Instr.Ret ->
      ()
  | Instr.Movi (dst, _) | Instr.Lea (dst, _) ->
      Tracking.push_set tk ~dst ~tainted:false
  | Instr.Mov (dst, src) | Instr.Extr { dst; src; _ } ->
      Tracking.push_move tk ~dst ~src
  | Instr.Arith (a, dst, s1, o) -> (
      match (a, o) with
      | (Instr.Xor | Instr.Sub), Instr.R s2 when s1 = s2 ->
          (* the clear idiom *)
          Tracking.push_set tk ~dst ~tainted:false
      | _, Instr.R s2 -> Tracking.push_union tk ~dst ~s1 ~s2
      | _, Instr.Imm _ -> Tracking.push_union tk ~dst ~s1 ~s2:Reg.zero)
  | Instr.Ld { width; dst; addr; _ } ->
      let a = t.values.(addr) in
      if Shift_mem.Addr.is_valid a then begin
        if checks then Tracking.push_check tk Tracking.Load_address ~reg:addr;
        Tracking.push_load tk ~dst ~addr:a ~len:(Instr.bytes_of_width width)
      end
  | Instr.St { width; addr; src; _ } ->
      let a = t.values.(addr) in
      if Shift_mem.Addr.is_valid a then begin
        if checks then Tracking.push_check tk Tracking.Store_address ~reg:addr;
        Tracking.push_store tk ~addr:a ~len:(Instr.bytes_of_width width) ~src
      end
  | Instr.Fetchadd { dst; addr; _ } ->
      if Shift_mem.Addr.is_valid t.values.(addr) then begin
        if checks then Tracking.push_check tk Tracking.Load_address ~reg:addr;
        Tracking.push_set tk ~dst ~tainted:false
      end
  | Instr.Br_reg r ->
      if checks then Tracking.push_check tk Tracking.Branch_target ~reg:r
  | Instr.Call_reg r ->
      if checks then Tracking.push_check tk Tracking.Call_target ~reg:r
  | Instr.Setnat r -> Tracking.push_set tk ~dst:r ~tainted:true
  | Instr.Clrnat r -> Tracking.push_set tk ~dst:r ~tainted:false
  | Instr.Syscall ->
      Tracking.flush tk;
      Tracking.push_set tk ~dst:Reg.ret ~tainted:false);
  charge_stall t tk

let finish t outcome =
  t.stats.cycles <- Pipeline.cycles t.pipe;
  outcome

(* One guest load/store touching the L1D model: account the access and,
   when the observation trace is live, record the set index it mapped to
   along with the provenance id of the address register.  The
   interpreter below and every superblock closure go through here, so
   the hardware trace cannot depend on which engine ran the access. *)
let touch_cache t ~pc ~store ~areg addr =
  let hit = Cache.access t.cache addr in
  let hw = t.hwtrace in
  if hw.Hwtrace.enabled then begin
    let prov =
      if t.flowtrace.Flowtrace.enabled then begin
        let id = t.ftregs.Flowtrace.id.(areg) in
        if id <> 0 then id else t.ftregs.Flowtrace.washed.(areg)
      end
      else 0
    in
    Hwtrace.record hw ~pc ~set:(Cache.set_of t.cache addr) ~hit ~store ~prov
  end;
  hit

let step t =
  if t.ip < 0 || t.ip >= Program.size t.program then
    Some (finish t (Faulted (Fault.Invalid_branch (Int64.of_int t.ip), t.ip)))
  else begin
    let start_ip = t.ip in
    let d = Array.unsafe_get t.decoded t.ip in
    let executing = t.preds.(d.Decode.qp) in
    t.stats.instructions <- t.stats.instructions + 1;
    t.stats.slots_by_prov.(d.Decode.prov_index) <-
      t.stats.slots_by_prov.(d.Decode.prov_index) + 1;
    if not executing then t.stats.predicated_off <- t.stats.predicated_off + 1;
    (* loads consult the cache model for their use-latency; stores
       allocate their line but are assumed write-buffered *)
    let latency =
      if executing && d.Decode.is_mem then
        match d.Decode.op with
        | Instr.Ld { addr; _ }
          when (not t.nats.(addr)) && Shift_mem.Addr.is_valid t.values.(addr) ->
            if touch_cache t ~pc:start_ip ~store:false ~areg:addr t.values.(addr)
            then d.Decode.latency
            else d.Decode.latency + Cache.miss_penalty
        | Instr.St { addr; _ }
          when (not t.nats.(addr)) && Shift_mem.Addr.is_valid t.values.(addr) ->
            ignore (touch_cache t ~pc:start_ip ~store:true ~areg:addr t.values.(addr));
            d.Decode.latency
        | _ -> d.Decode.latency
      else d.Decode.latency
    in
    Pipeline.issue t.pipe ~executing ~reads:d.Decode.reads
      ~writes:d.Decode.writes
      ~pred_writes:d.Decode.pred_writes
      ~qp:d.Decode.qp ~is_mem:d.Decode.is_mem ~latency;
    (* decoupled-backend hook: one never-taken branch under nat/none *)
    (let tk = t.tracking in
     if Tracking.per_instr tk then begin
       Tracking.tick tk;
       if executing then track_op t d
     end);
    if executing then
      try
        exec_op t d;
        None
      with
      | Fault_exn f -> Some (finish t (Faulted (f, start_ip)))
      | Halt_exn v | Exit_requested v -> Some (finish t (Exited v))
    else begin
      t.ip <- t.ip + 1;
      None
    end
  end

type status = [ `Yielded | `Finished of outcome ]

let run_for t ~budget =
  let rec go n =
    if n <= 0 then `Yielded
    else
      match step t with
      | Some outcome -> `Finished outcome
      | None -> go (n - 1)
  in
  (* keep the cycle count consistent even when a syscall handler raises
     (policy violations propagate as exceptions) *)
  Fun.protect ~finally:(fun () -> t.stats.cycles <- Pipeline.cycles t.pipe) (fun () -> go budget)

let run ?(fuel = 2_000_000_000) t =
  match run_for t ~budget:fuel with
  | `Finished outcome -> outcome
  | `Yielded -> finish t Out_of_fuel
