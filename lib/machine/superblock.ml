(* The dynamic superblock compiler.

   Hot single-entry straight-line regions of the guest program are
   compiled into chains of pre-resolved OCaml closures: operand indices,
   immediates, branch targets, Extr masks, predicate liveness and
   flow-trace hooks are all bound at compile time, so the steady state
   executes block-to-block through the block cache without touching the
   generic decode/dispatch interpreter.

   The contract is *counter identity*: a run with superblocks on must
   produce exactly the simulated state a pure-interpreter run produces —
   every Stats field, pipeline cycle, cache line, taint bit, Flowtrace
   ring slot and alert.  Consequently no guest instruction is ever
   elided or merged; the compiler only removes host-side work whose
   absence is unobservable:

   - decode dispatch and operand resolution (bound in the closure);
   - the qualifying-predicate read for qp = p0 (p0 is architecturally
     always true, so the predicated-off path is provably dead);
   - NaT reads of immediate operands (an immediate's NaT is false);
   - arithmetic on a discarded destination when it cannot fault;
   - the per-instruction flowtrace enabled check (each block is
     specialised for one value of [flowtrace.enabled], and machines
     dispatch through the table for their own value);
   - per-instruction [instructions]/[slots_by_prov] bumps (batched per
     block and unwound exactly on faults);
   - the tag-coprocessor mirror's decode: under a per-instruction
     tracking backend each slot's record kinds and operand registers
     are bound at compile time, and the tick, pushes and stall charge
     run in [Cpu.step]'s order.

   Fuel accounting stays precise: a block is only entered when the
   remaining budget covers its whole length, otherwise the tail is
   interpreted instruction-at-a-time.  Engine slicing, checkpoints and
   serve migration therefore see the same instruction boundaries as the
   interpreter.

   Blocks live in the program's shared [Cpu.code], one table per block
   key.  They are invalidated when a guest store hits the synthetic code
   region (region 2, 8 bytes per instruction slot, watched via
   {!Shift_mem.Memory.watch}) — the conservative flush any translator
   performs on writes to code pages — in the writing machine's private
   copy of its table. *)

open Shift_isa
module Memory = Shift_mem.Memory
module Addr = Shift_mem.Addr
module Tracking = Shift_tracking.Tracking

let hot_threshold = 8
let max_block_len = 64

(* The code region: instruction slot [pc] occupies the 8 bytes at
   [code_addr pc].  Region 2 is otherwise unused (0 = taint bitmap,
   1 = data/heap/stack, 3 = provenance shadow). *)
let code_base = Addr.in_region 2 0L
let code_addr pc = Addr.in_region 2 (Int64.of_int (pc * 8))

let is_terminator (op : Instr.op) =
  match op with
  | Instr.Br _ | Instr.Br_reg _ | Instr.Call _ | Instr.Call_reg _ | Instr.Ret
  | Instr.Chk_s _ | Instr.Halt | Instr.Syscall ->
      true
  | _ -> false

let stats (t : Cpu.t) = t.Cpu.sb.Cpu.sb_stats

let ft_enabled (t : Cpu.t) = t.Cpu.flowtrace.Flowtrace.enabled

let usable (t : Cpu.t) = t.Cpu.sb.Cpu.sb_on

(* ---------- instruction bodies ----------

   [compile_exec] returns the functional effect of one instruction whose
   qualifying predicate is true — the closure-compiled mirror of
   [Cpu.exec_op], specialised for [ft] (the flowtrace.enabled value the
   enclosing block is compiled for).  Instructions with no specialised
   shape fall back to [Cpu.exec_op], which is identical by
   construction. *)

let compile_exec (d : Decode.info) ~ft : Cpu.t -> unit =
  let generic = fun t -> Cpu.exec_op t d in
  match d.Decode.op with
  | Instr.Nop -> fun t -> t.Cpu.ip <- t.Cpu.ip + 1
  | Instr.Halt -> fun t -> raise (Cpu.Halt_exn t.Cpu.values.(Reg.ret))
  | Instr.Movi (dst, v) ->
      if dst = Reg.zero then fun t -> t.Cpu.ip <- t.Cpu.ip + 1
      else if ft then fun t ->
        t.Cpu.values.(dst) <- v;
        t.Cpu.nats.(dst) <- false;
        Flowtrace.on_const t.Cpu.flowtrace t.Cpu.ftregs ~dst;
        t.Cpu.ip <- t.Cpu.ip + 1
      else fun t ->
        t.Cpu.values.(dst) <- v;
        t.Cpu.nats.(dst) <- false;
        t.Cpu.ip <- t.Cpu.ip + 1
  | Instr.Mov (dst, src) ->
      if dst = Reg.zero then fun t -> t.Cpu.ip <- t.Cpu.ip + 1
      else if ft then fun t ->
        t.Cpu.values.(dst) <- t.Cpu.values.(src);
        t.Cpu.nats.(dst) <- t.Cpu.nats.(src);
        Flowtrace.on_move t.Cpu.flowtrace t.Cpu.ftregs ~ip:t.Cpu.ip ~dst ~src;
        t.Cpu.ip <- t.Cpu.ip + 1
      else fun t ->
        t.Cpu.values.(dst) <- t.Cpu.values.(src);
        t.Cpu.nats.(dst) <- t.Cpu.nats.(src);
        t.Cpu.ip <- t.Cpu.ip + 1
  | Instr.Lea (dst, _) ->
      let v = Int64.of_int d.Decode.target in
      if dst = Reg.zero then fun t -> t.Cpu.ip <- t.Cpu.ip + 1
      else if ft then fun t ->
        t.Cpu.values.(dst) <- v;
        t.Cpu.nats.(dst) <- false;
        Flowtrace.on_const t.Cpu.flowtrace t.Cpu.ftregs ~dst;
        t.Cpu.ip <- t.Cpu.ip + 1
      else fun t ->
        t.Cpu.values.(dst) <- v;
        t.Cpu.nats.(dst) <- false;
        t.Cpu.ip <- t.Cpu.ip + 1
  | Instr.Arith (a, dst, s1, o) ->
      let clear_idiom =
        match (a, o) with
        | (Instr.Xor | Instr.Sub), Instr.R s2 -> s1 = s2
        | _ -> false
      in
      let can_fault = match a with Instr.Div | Instr.Rem -> true | _ -> false in
      if dst = Reg.zero then
        if not can_fault then fun t -> t.Cpu.ip <- t.Cpu.ip + 1
        else generic
      else begin
        let src2 = match o with Instr.R r -> Some r | Instr.Imm _ -> None in
        match o with
        | Instr.Imm imm ->
            (* an immediate operand carries no NaT: the operand_nat read
               is dropped *)
            if ft then fun t ->
              let v = Cpu.eval_arith a t.Cpu.values.(s1) imm in
              t.Cpu.values.(dst) <- v;
              t.Cpu.nats.(dst) <- t.Cpu.nats.(s1);
              Flowtrace.on_arith t.Cpu.flowtrace t.Cpu.ftregs ~ip:t.Cpu.ip ~dst
                ~src1:s1 ~src2 ~clear:false;
              t.Cpu.ip <- t.Cpu.ip + 1
            else fun t ->
              let v = Cpu.eval_arith a t.Cpu.values.(s1) imm in
              t.Cpu.values.(dst) <- v;
              t.Cpu.nats.(dst) <- t.Cpu.nats.(s1);
              t.Cpu.ip <- t.Cpu.ip + 1
        | Instr.R s2 ->
            if clear_idiom then
              if ft then fun t ->
                let v = Cpu.eval_arith a t.Cpu.values.(s1) t.Cpu.values.(s2) in
                t.Cpu.values.(dst) <- v;
                t.Cpu.nats.(dst) <- false;
                Flowtrace.on_arith t.Cpu.flowtrace t.Cpu.ftregs ~ip:t.Cpu.ip
                  ~dst ~src1:s1 ~src2 ~clear:true;
                t.Cpu.ip <- t.Cpu.ip + 1
              else fun t ->
                let v = Cpu.eval_arith a t.Cpu.values.(s1) t.Cpu.values.(s2) in
                t.Cpu.values.(dst) <- v;
                t.Cpu.nats.(dst) <- false;
                t.Cpu.ip <- t.Cpu.ip + 1
            else if ft then fun t ->
              let v = Cpu.eval_arith a t.Cpu.values.(s1) t.Cpu.values.(s2) in
              t.Cpu.values.(dst) <- v;
              t.Cpu.nats.(dst) <- t.Cpu.nats.(s1) || t.Cpu.nats.(s2);
              Flowtrace.on_arith t.Cpu.flowtrace t.Cpu.ftregs ~ip:t.Cpu.ip ~dst
                ~src1:s1 ~src2 ~clear:false;
              t.Cpu.ip <- t.Cpu.ip + 1
            else fun t ->
              let v = Cpu.eval_arith a t.Cpu.values.(s1) t.Cpu.values.(s2) in
              t.Cpu.values.(dst) <- v;
              t.Cpu.nats.(dst) <- t.Cpu.nats.(s1) || t.Cpu.nats.(s2);
              t.Cpu.ip <- t.Cpu.ip + 1
      end
  | Instr.Cmp { cond; pt; pf; src1; src2; taint_aware } -> (
      match src2 with
      | Instr.Imm imm ->
          if taint_aware then fun t ->
            let r = Cond.eval cond t.Cpu.values.(src1) imm in
            Cpu.set_pred t pt r;
            Cpu.set_pred t pf (not r);
            t.Cpu.ip <- t.Cpu.ip + 1
          else fun t ->
            if t.Cpu.nats.(src1) then begin
              Cpu.set_pred t pt false;
              Cpu.set_pred t pf false
            end
            else begin
              let r = Cond.eval cond t.Cpu.values.(src1) imm in
              Cpu.set_pred t pt r;
              Cpu.set_pred t pf (not r)
            end;
            t.Cpu.ip <- t.Cpu.ip + 1
      | Instr.R s2 ->
          if taint_aware then fun t ->
            let r = Cond.eval cond t.Cpu.values.(src1) t.Cpu.values.(s2) in
            Cpu.set_pred t pt r;
            Cpu.set_pred t pf (not r);
            t.Cpu.ip <- t.Cpu.ip + 1
          else fun t ->
            if t.Cpu.nats.(src1) || t.Cpu.nats.(s2) then begin
              Cpu.set_pred t pt false;
              Cpu.set_pred t pf false
            end
            else begin
              let r = Cond.eval cond t.Cpu.values.(src1) t.Cpu.values.(s2) in
              Cpu.set_pred t pt r;
              Cpu.set_pred t pf (not r)
            end;
            t.Cpu.ip <- t.Cpu.ip + 1)
  | Instr.Tnat { pt; pf; src } ->
      if ft then fun t ->
        let n = t.Cpu.nats.(src) in
        Cpu.set_pred t pt n;
        Cpu.set_pred t pf (not n);
        Flowtrace.on_check t.Cpu.flowtrace t.Cpu.ftregs ~ip:t.Cpu.ip ~src
          ~tainted:n;
        t.Cpu.ip <- t.Cpu.ip + 1
      else fun t ->
        let n = t.Cpu.nats.(src) in
        Cpu.set_pred t pt n;
        Cpu.set_pred t pf (not n);
        t.Cpu.ip <- t.Cpu.ip + 1
  | Instr.Extr { dst; src; pos; len } ->
      if dst = Reg.zero then fun t -> t.Cpu.ip <- t.Cpu.ip + 1
      else begin
        let mask =
          if len >= 64 then -1L
          else Int64.sub (Int64.shift_left 1L (len land 63)) 1L
        in
        let sh = pos land 63 in
        if ft then fun t ->
          t.Cpu.values.(dst) <-
            Int64.logand (Int64.shift_right_logical t.Cpu.values.(src) sh) mask;
          t.Cpu.nats.(dst) <- t.Cpu.nats.(src);
          Flowtrace.on_move t.Cpu.flowtrace t.Cpu.ftregs ~ip:t.Cpu.ip ~dst ~src;
          t.Cpu.ip <- t.Cpu.ip + 1
        else fun t ->
          t.Cpu.values.(dst) <-
            Int64.logand (Int64.shift_right_logical t.Cpu.values.(src) sh) mask;
          t.Cpu.nats.(dst) <- t.Cpu.nats.(src);
          t.Cpu.ip <- t.Cpu.ip + 1
      end
  | Instr.Ld _ | Instr.St _ ->
      (* loads and stores are compiled by the fused builders in
         [compile_instr], which bind the cache consultation, the issue
         and the access in one closure; this arm is only reached for the
         shapes those builders decline (dst = r0, spill) *)
      generic
  | Instr.Chk_s { src; _ } ->
      let target = d.Decode.target in
      if ft then fun t ->
        let n = t.Cpu.nats.(src) in
        Flowtrace.on_check t.Cpu.flowtrace t.Cpu.ftregs ~ip:t.Cpu.ip ~src
          ~tainted:n;
        if n then begin
          t.Cpu.ip <- target;
          t.Cpu.stats.Stats.branches <- t.Cpu.stats.Stats.branches + 1;
          Pipeline.redirect t.Cpu.pipe ~penalty:Cpu.chk_penalty
        end
        else t.Cpu.ip <- t.Cpu.ip + 1
      else fun t ->
        if t.Cpu.nats.(src) then begin
          t.Cpu.ip <- target;
          t.Cpu.stats.Stats.branches <- t.Cpu.stats.Stats.branches + 1;
          Pipeline.redirect t.Cpu.pipe ~penalty:Cpu.chk_penalty
        end
        else t.Cpu.ip <- t.Cpu.ip + 1
  | Instr.Br _ ->
      let target = d.Decode.target in
      fun t -> Cpu.goto t target
  | Instr.Br_reg _ | Instr.Call _ | Instr.Call_reg _ | Instr.Ret
  | Instr.Fetchadd _ | Instr.Setnat _ | Instr.Clrnat _ | Instr.Syscall ->
      generic

(* ---------- the tag-coprocessor mirror ----------

   Under a per-instruction tracking backend ([coproc]) every slot
   retires through [Tracking.tick], and every executing slot pushes the
   records [Cpu.track_op] would, with their kinds and operand registers
   bound here.  [compile_mirror] covers the slots that are not loads or
   stores; those get their pushes inside the fused closures of
   [compile_instr], which already hold the address.  Placement follows
   [Cpu.step]: after the issue, before the functional effect.  A drain
   that raises [Alert.Violation] therefore leaves [ip] on its slot, and
   [exec_block] unwinds the block tail exactly as for a fault. *)

let compile_mirror (d : Decode.info) : Cpu.t -> unit =
  match d.Decode.op with
  | Instr.Nop | Instr.Halt | Instr.Cmp _ | Instr.Tnat _ | Instr.Chk_s _
  | Instr.Br _ | Instr.Call _ | Instr.Ret ->
      fun t ->
        let tk = t.Cpu.tracking in
        Tracking.tick tk;
        Cpu.charge_stall t tk
  | Instr.Movi (dst, _) | Instr.Lea (dst, _) ->
      fun t ->
        let tk = t.Cpu.tracking in
        Tracking.tick tk;
        Tracking.push_set tk ~dst ~tainted:false;
        Cpu.charge_stall t tk
  | Instr.Mov (dst, src) | Instr.Extr { dst; src; _ } ->
      fun t ->
        let tk = t.Cpu.tracking in
        Tracking.tick tk;
        Tracking.push_move tk ~dst ~src;
        Cpu.charge_stall t tk
  | Instr.Arith ((Instr.Xor | Instr.Sub), dst, s1, Instr.R s2) when s1 = s2 ->
      fun t ->
        let tk = t.Cpu.tracking in
        Tracking.tick tk;
        Tracking.push_set tk ~dst ~tainted:false;
        Cpu.charge_stall t tk
  | Instr.Arith (_, dst, s1, o) ->
      let s2 = match o with Instr.R r -> r | Instr.Imm _ -> Reg.zero in
      fun t ->
        let tk = t.Cpu.tracking in
        Tracking.tick tk;
        Tracking.push_union tk ~dst ~s1 ~s2;
        Cpu.charge_stall t tk
  | Instr.Ld _ | Instr.St _ | Instr.Fetchadd _ | Instr.Br_reg _
  | Instr.Call_reg _ | Instr.Setnat _ | Instr.Clrnat _ | Instr.Syscall ->
      fun t ->
        Tracking.tick t.Cpu.tracking;
        Cpu.track_op t d

(* ---------- timing prologue and memory fusion ----------

   [compile_instr] wraps an instruction body with exactly [Cpu.step]'s
   timing work — predicated-off accounting, the cache consultation for
   valid memory accesses, the pipeline issue — through a
   {!Pipeline.compile_issue} closure specialised for the instruction's
   operand shape.  Loads and stores are *fused*: the address read, the
   NaT/validity test, the cache lookup, the issue and the access itself
   are one closure, so the machine state each stage needs is read once
   (the interpreter reads it once in the timing prologue and again in
   [exec_op]). *)

(* [Cpu.exec_op]'s invalid-load path; runs after the issue, like the
   fault raised from [exec_op] *)
let load_invalid ~spec ~ft ~dst ~addr (t : Cpu.t) a =
  if spec then begin
    t.Cpu.values.(dst) <- 0L;
    t.Cpu.nats.(dst) <- true;
    if ft then
      Flowtrace.on_spec_nat t.Cpu.flowtrace t.Cpu.ftregs ~ip:t.Cpu.ip ~dst;
    t.Cpu.ip <- t.Cpu.ip + 1
  end
  else if t.Cpu.nats.(addr) then
    raise (Cpu.Fault_exn (Fault.Nat_consumption Fault.Load_address))
  else raise (Cpu.Fault_exn (Fault.Invalid_address a))

let compile_instr (decoded : Decode.t) ~ft ~mirror ~checks pc : Cpu.t -> unit =
  let d = decoded.(pc) in
  (* hooks fire only for original-program instructions: the SHIFT
     instrumentation (non-Orig provenance) is transparent to the
     provenance shadow, exactly as in [Cpu.exec_op] *)
  let ft = ft && d.Decode.prov_index = 0 in
  let qp = d.Decode.qp in
  let lat0 = d.Decode.latency in
  let issue =
    Pipeline.compile_issue ~reads:d.Decode.reads ~writes:d.Decode.writes
      ~pred_writes:d.Decode.pred_writes ~qp ~is_mem:d.Decode.is_mem
  in
  let hot =
    match d.Decode.op with
    | Instr.Ld { width; dst; addr; spec; fill } when mirror ->
        (* the tag mirror pushes for every valid address, the test
           [Cpu.track_op] makes; the access is the fused one below, with
           [fill] and [ft] tested on bound flags *)
        let w = Instr.bytes_of_width width in
        let invalid = load_invalid ~spec ~ft ~dst ~addr in
        fun t ->
          let a = t.Cpu.values.(addr) in
          let valid = Addr.is_valid a in
          let ok = (not t.Cpu.nats.(addr)) && valid in
          issue t.Cpu.pipe
            (if ok then
               if Cpu.touch_cache t ~pc ~store:false ~areg:addr a then lat0
               else lat0 + Cache.miss_penalty
             else lat0);
          let tk = t.Cpu.tracking in
          Tracking.tick tk;
          if valid then begin
            if checks then
              Tracking.push_check tk Tracking.Load_address ~reg:addr;
            Tracking.push_load tk ~dst ~addr:a ~len:w
          end;
          Cpu.charge_stall t tk;
          if dst = Reg.zero then Cpu.exec_op t d
          else if ok then begin
            t.Cpu.values.(dst) <- Memory.read t.Cpu.mem a ~width:w;
            t.Cpu.nats.(dst) <-
              fill
              && Int64.logand
                   (Int64.shift_right_logical t.Cpu.unat (Cpu.unat_bit a))
                   1L
                 = 1L;
            t.Cpu.stats.Stats.loads <- t.Cpu.stats.Stats.loads + 1;
            if ft then
              Flowtrace.on_load t.Cpu.flowtrace t.Cpu.ftregs ~ip:t.Cpu.ip
                ~dst ~addr:a ~len:w;
            t.Cpu.ip <- t.Cpu.ip + 1
          end
          else invalid t a
    | Instr.St { width; addr; src; spill } when mirror ->
        let w = Instr.bytes_of_width width in
        fun t ->
          let a = t.Cpu.values.(addr) in
          let addr_nat = t.Cpu.nats.(addr) in
          let valid = Addr.is_valid a in
          if (not addr_nat) && valid then
            ignore (Cpu.touch_cache t ~pc ~store:true ~areg:addr a);
          issue t.Cpu.pipe lat0;
          let tk = t.Cpu.tracking in
          Tracking.tick tk;
          if valid then begin
            if checks then
              Tracking.push_check tk Tracking.Store_address ~reg:addr;
            Tracking.push_store tk ~addr:a ~len:w ~src
          end;
          Cpu.charge_stall t tk;
          if spill then Cpu.exec_op t d
          else begin
            if addr_nat then
              raise (Cpu.Fault_exn (Fault.Nat_consumption Fault.Store_address));
            if not valid then raise (Cpu.Fault_exn (Fault.Invalid_address a));
            if t.Cpu.nats.(src) then
              raise (Cpu.Fault_exn (Fault.Nat_consumption Fault.Store_value));
            Memory.write t.Cpu.mem a ~width:w t.Cpu.values.(src);
            t.Cpu.stats.Stats.stores <- t.Cpu.stats.Stats.stores + 1;
            if ft then
              Flowtrace.on_store t.Cpu.flowtrace t.Cpu.ftregs ~ip:t.Cpu.ip
                ~src ~addr:a ~len:w;
            t.Cpu.ip <- t.Cpu.ip + 1
          end
    | _ when mirror ->
        let track = compile_mirror d in
        let exec = compile_exec d ~ft in
        fun t ->
          issue t.Cpu.pipe lat0;
          track t;
          exec t
    | Instr.Ld { width; dst; addr; spec; fill } when dst <> Reg.zero ->
        let w = Instr.bytes_of_width width in
        let invalid = load_invalid ~spec ~ft ~dst ~addr in
        if ft then fun t ->
          let a = t.Cpu.values.(addr) in
          let ok = (not t.Cpu.nats.(addr)) && Addr.is_valid a in
          issue t.Cpu.pipe
            (if ok then
               if Cpu.touch_cache t ~pc ~store:false ~areg:addr a then lat0
               else lat0 + Cache.miss_penalty
             else lat0);
          if ok then begin
            t.Cpu.values.(dst) <- Memory.read t.Cpu.mem a ~width:w;
            t.Cpu.nats.(dst) <-
              fill
              && Int64.logand
                   (Int64.shift_right_logical t.Cpu.unat (Cpu.unat_bit a))
                   1L
                 = 1L;
            t.Cpu.stats.Stats.loads <- t.Cpu.stats.Stats.loads + 1;
            Flowtrace.on_load t.Cpu.flowtrace t.Cpu.ftregs ~ip:t.Cpu.ip ~dst
              ~addr:a ~len:w;
            t.Cpu.ip <- t.Cpu.ip + 1
          end
          else invalid t a
        else if fill then fun t ->
          let a = t.Cpu.values.(addr) in
          let ok = (not t.Cpu.nats.(addr)) && Addr.is_valid a in
          issue t.Cpu.pipe
            (if ok then
               if Cpu.touch_cache t ~pc ~store:false ~areg:addr a then lat0
               else lat0 + Cache.miss_penalty
             else lat0);
          if ok then begin
            t.Cpu.values.(dst) <- Memory.read t.Cpu.mem a ~width:w;
            t.Cpu.nats.(dst) <-
              Int64.logand
                (Int64.shift_right_logical t.Cpu.unat (Cpu.unat_bit a))
                1L
              = 1L;
            t.Cpu.stats.Stats.loads <- t.Cpu.stats.Stats.loads + 1;
            t.Cpu.ip <- t.Cpu.ip + 1
          end
          else invalid t a
        else fun t ->
          let a = t.Cpu.values.(addr) in
          let ok = (not t.Cpu.nats.(addr)) && Addr.is_valid a in
          issue t.Cpu.pipe
            (if ok then
               if Cpu.touch_cache t ~pc ~store:false ~areg:addr a then lat0
               else lat0 + Cache.miss_penalty
             else lat0);
          if ok then begin
            t.Cpu.values.(dst) <- Memory.read t.Cpu.mem a ~width:w;
            t.Cpu.nats.(dst) <- false;
            t.Cpu.stats.Stats.loads <- t.Cpu.stats.Stats.loads + 1;
            t.Cpu.ip <- t.Cpu.ip + 1
          end
          else invalid t a
    | Instr.St { width; addr; src; spill = false } ->
        let w = Instr.bytes_of_width width in
        if ft then fun t ->
          let a = t.Cpu.values.(addr) in
          let addr_nat = t.Cpu.nats.(addr) in
          let valid = Addr.is_valid a in
          if (not addr_nat) && valid then
            ignore (Cpu.touch_cache t ~pc ~store:true ~areg:addr a);
          issue t.Cpu.pipe lat0;
          if addr_nat then
            raise (Cpu.Fault_exn (Fault.Nat_consumption Fault.Store_address));
          if not valid then raise (Cpu.Fault_exn (Fault.Invalid_address a));
          if t.Cpu.nats.(src) then
            raise (Cpu.Fault_exn (Fault.Nat_consumption Fault.Store_value));
          Memory.write t.Cpu.mem a ~width:w t.Cpu.values.(src);
          t.Cpu.stats.Stats.stores <- t.Cpu.stats.Stats.stores + 1;
          Flowtrace.on_store t.Cpu.flowtrace t.Cpu.ftregs ~ip:t.Cpu.ip ~src
            ~addr:a ~len:w;
          t.Cpu.ip <- t.Cpu.ip + 1
        else fun t ->
          let a = t.Cpu.values.(addr) in
          let addr_nat = t.Cpu.nats.(addr) in
          let valid = Addr.is_valid a in
          if (not addr_nat) && valid then
            ignore (Cpu.touch_cache t ~pc ~store:true ~areg:addr a);
          issue t.Cpu.pipe lat0;
          if addr_nat then
            raise (Cpu.Fault_exn (Fault.Nat_consumption Fault.Store_address));
          if not valid then raise (Cpu.Fault_exn (Fault.Invalid_address a));
          if t.Cpu.nats.(src) then
            raise (Cpu.Fault_exn (Fault.Nat_consumption Fault.Store_value));
          Memory.write t.Cpu.mem a ~width:w t.Cpu.values.(src);
          t.Cpu.stats.Stats.stores <- t.Cpu.stats.Stats.stores + 1;
          t.Cpu.ip <- t.Cpu.ip + 1
    | Instr.Ld { addr; _ } ->
        (* dst = r0: the load still times like a load (cache lookup,
           latency) but executes through the generic interpreter body *)
        let exec = compile_exec d ~ft in
        fun t ->
          let a = t.Cpu.values.(addr) in
          let ok = (not t.Cpu.nats.(addr)) && Addr.is_valid a in
          issue t.Cpu.pipe
            (if ok then
               if Cpu.touch_cache t ~pc ~store:false ~areg:addr a then lat0
               else lat0 + Cache.miss_penalty
             else lat0);
          exec t
    | Instr.St { addr; _ } ->
        (* spill stores execute generically but time like stores *)
        let exec = compile_exec d ~ft in
        fun t ->
          if (not t.Cpu.nats.(addr)) && Addr.is_valid t.Cpu.values.(addr) then
            ignore
              (Cpu.touch_cache t ~pc ~store:true ~areg:addr t.Cpu.values.(addr));
          issue t.Cpu.pipe lat0;
          exec t
    | _ ->
        let exec = compile_exec d ~ft in
        fun t ->
          issue t.Cpu.pipe lat0;
          exec t
  in
  if qp = Pred.p0 then
    (* p0 is architecturally always true: the predicate read and the
       predicated-off path are dropped *)
    hot
  else begin
    let off = Pipeline.compile_issue_off ~qp in
    if mirror then fun t ->
      if t.Cpu.preds.(qp) then hot t
      else begin
        t.Cpu.stats.Stats.predicated_off <-
          t.Cpu.stats.Stats.predicated_off + 1;
        off t.Cpu.pipe;
        (* a predicated-off slot still retires: the coprocessor ticks *)
        Tracking.tick t.Cpu.tracking;
        t.Cpu.ip <- t.Cpu.ip + 1
      end
    else fun t ->
      if t.Cpu.preds.(qp) then hot t
      else begin
        t.Cpu.stats.Stats.predicated_off <-
          t.Cpu.stats.Stats.predicated_off + 1;
        off t.Cpu.pipe;
        t.Cpu.ip <- t.Cpu.ip + 1
      end
  end

(* Compose the per-instruction closures into one body, four at a time so
   a 64-instruction block costs ~16 nested frames instead of 64. *)
let rec seq (fs : (Cpu.t -> unit) array) i n : Cpu.t -> unit =
  match n - i with
  | 1 -> fs.(i)
  | 2 ->
      let a = fs.(i) and b = fs.(i + 1) in
      fun t -> a t; b t
  | 3 ->
      let a = fs.(i) and b = fs.(i + 1) and c = fs.(i + 2) in
      fun t -> a t; b t; c t
  | _ ->
      let a = fs.(i) and b = fs.(i + 1) and c = fs.(i + 2) and d = fs.(i + 3) in
      if n - i = 4 then fun t -> a t; b t; c t; d t
      else
        let rest = seq fs (i + 4) n in
        fun t -> a t; b t; c t; d t; rest t

(* ---------- block tables ----------

   A block key names what a body was specialised for: the Flowtrace
   flag and the tracking backend's profile.  The tag-mirror slots read
   the handle from the machine when they run, so one table serves every
   session whose backend has the same profile.  Key = 2 * profile + ft,
   with profile 0 (no mirror), 1 (tag mirror) or 2 (mirror with
   low-level checks). *)

let key_of (t : Cpu.t) =
  let tk = t.Cpu.tracking in
  let profile =
    if not (Tracking.per_instr tk) then 0
    else if Tracking.low_level_checks tk then 2
    else 1
  in
  (2 * profile) + if ft_enabled t then 1 else 0

(* The code's shared table for [key], created on first use. *)
let shared_table (code : Cpu.code) key =
  match code.Cpu.code_tables.(key) with
  | [||] ->
      Mutex.protect code.Cpu.code_lock (fun () ->
          match code.Cpu.code_tables.(key) with
          | [||] ->
              let tbl = Array.make (Program.size code.Cpu.code_program) None in
              code.Cpu.code_tables.(key) <- tbl;
              tbl
          | tbl -> tbl)
  | tbl -> tbl

(* Enter [b] at [entry] in the machine's table.  A private table is the
   machine's own; a shared one is published under the code's lock, and
   when another machine got there first its block stays. *)
let publish (t : Cpu.t) entry b =
  let sb = t.Cpu.sb in
  let tbl = sb.Cpu.sb_blocks in
  if sb.Cpu.sb_private then tbl.(entry) <- Some b
  else
    let lock = t.Cpu.code.Cpu.code_lock in
    Mutex.protect lock (fun () ->
        match tbl.(entry) with None -> tbl.(entry) <- Some b | Some _ -> ())

(* ---------- invalidation ---------- *)

(* A machine that writes its code region stops sharing: it copies its
   table once and invalidates in the copy, so the other machines on the
   code keep their blocks. *)
let invalidate_range (t : Cpu.t) ~p0 ~p1 =
  let sb = t.Cpu.sb in
  if not sb.Cpu.sb_private then begin
    sb.Cpu.sb_blocks <- Array.copy sb.Cpu.sb_blocks;
    sb.Cpu.sb_private <- true
  end;
  let blocks = sb.Cpu.sb_blocks in
  let hi = min p1 (Array.length blocks - 1) in
  let lo = max 0 (p0 - max_block_len + 1) in
  for e = lo to hi do
    match blocks.(e) with
    | Some b when b.Cpu.sb_entry + b.Cpu.sb_len > p0 ->
        blocks.(e) <- None;
        sb.Cpu.sb_stats.Stats.sb_invalidations <-
          sb.Cpu.sb_stats.Stats.sb_invalidations + 1
    | _ -> ()
  done

(* A store landed in [a, a+len) inside the watched code region: drop
   every compiled block whose instruction span covers a written slot. *)
let on_code_write (t : Cpu.t) a len =
  let off0 =
    if Int64.unsigned_compare a code_base < 0 then 0L
    else Int64.sub a code_base
  in
  let off1 = Int64.add (Int64.sub a code_base) (Int64.of_int (len - 1)) in
  let p0 = Int64.to_int (Int64.shift_right_logical off0 3) in
  let p1 = Int64.to_int (Int64.shift_right_logical off1 3) in
  invalidate_range t ~p0 ~p1

let watch_code (t : Cpu.t) =
  let size = Program.size t.Cpu.program in
  if size > 0 then
    Memory.watch t.Cpu.mem ~lo:code_base ~hi:(code_addr size)
      (fun a len -> on_code_write t a len)

(* Point the machine at the table for its current key.  Runs on entry to
   the block driver, so the watch is registered (on the first call)
   before the machine runs its first block; within one driver call the
   key cannot change (the Flowtrace flag and the tracking handle are
   fixed at session set-up). *)
let select (t : Cpu.t) =
  let sb = t.Cpu.sb in
  let key = key_of t in
  if key <> sb.Cpu.sb_key then begin
    if sb.Cpu.sb_key < 0 then watch_code t;
    sb.Cpu.sb_key <- key;
    sb.Cpu.sb_blocks <- shared_table t.Cpu.code key;
    sb.Cpu.sb_private <- false
  end

(* ---------- block discovery and compilation ---------- *)

let compile_block (t : Cpu.t) entry =
  let sb = t.Cpu.sb in
  let decoded = t.Cpu.decoded in
  let size = Program.size t.Cpu.program in
  let key = sb.Cpu.sb_key in
  let ft = key land 1 = 1 and mirror = key >= 2 and checks = key >= 4 in
  let len = ref 0 in
  let stop = ref false in
  while (not !stop) && !len < max_block_len && entry + !len < size do
    let d = decoded.(entry + !len) in
    incr len;
    if is_terminator d.Decode.op then stop := true
  done;
  let len = !len in
  let fs =
    Array.init len (fun i -> compile_instr decoded ~ft ~mirror ~checks (entry + i))
  in
  let provs =
    Array.init len (fun i -> decoded.(entry + i).Decode.prov_index)
  in
  let prov_counts = Array.make Prov.card 0 in
  Array.iter (fun p -> prov_counts.(p) <- prov_counts.(p) + 1) provs;
  publish t entry
    {
      Cpu.sb_entry = entry;
      sb_len = len;
      sb_ft = ft;
      sb_provs = provs;
      sb_prov_counts = prov_counts;
      sb_body = seq fs 0 len;
    };
  sb.Cpu.sb_stats.Stats.sb_compiled <- sb.Cpu.sb_stats.Stats.sb_compiled + 1

(* ---------- the block driver ---------- *)

(* Execute one compiled block.  [instructions] and [slots_by_prov] are
   bumped for the whole block up front; if an exception cuts the block
   short, the unexecuted tail is unwound using the block's
   straight-line shape (the faulting instruction is [t.ip], so exactly
   [ip - entry + 1] instructions retired).  Returns the instructions
   spent and the terminal outcome, if any. *)
let exec_block (t : Cpu.t) (b : Cpu.sb_block) =
  let st = t.Cpu.stats in
  st.Stats.instructions <- st.Stats.instructions + b.Cpu.sb_len;
  let sp = st.Stats.slots_by_prov in
  let pc = b.Cpu.sb_prov_counts in
  for i = 0 to Array.length pc - 1 do
    sp.(i) <- sp.(i) + Array.unsafe_get pc i
  done;
  let ft = t.Cpu.flowtrace in
  let batching = b.Cpu.sb_ft in
  if batching then Flowtrace.begin_batch ft;
  match b.Cpu.sb_body t with
  | () ->
      if batching then Flowtrace.end_batch ft;
      (b.Cpu.sb_len, None)
  | exception e ->
      if batching then Flowtrace.end_batch ft;
      let executed = t.Cpu.ip - b.Cpu.sb_entry + 1 in
      if executed < b.Cpu.sb_len then begin
        st.Stats.instructions <- st.Stats.instructions - (b.Cpu.sb_len - executed);
        for k = executed to b.Cpu.sb_len - 1 do
          let p = b.Cpu.sb_provs.(k) in
          sp.(p) <- sp.(p) - 1
        done
      end;
      (match e with
      | Cpu.Fault_exn f -> (executed, Some (Cpu.Faulted (f, t.Cpu.ip)))
      | Cpu.Halt_exn v | Cpu.Exit_requested v -> (executed, Some (Cpu.Exited v))
      | e -> raise e)

(* Interpret from the current ip up to and including the next block
   terminator (or until the budget, a terminal outcome, or a pc with a
   compiled block).  Used when a region is not hot yet and when the
   remaining budget cannot cover a whole compiled block. *)
let interp_to_boundary (t : Cpu.t) ~limit spent out =
  let sb = t.Cpu.sb in
  let size = Program.size t.Cpu.program in
  let stop = ref false in
  while (not !stop) && !out = None && !spent < limit do
    let ip = t.Cpu.ip in
    let boundary =
      ip < 0 || ip >= size || is_terminator t.Cpu.decoded.(ip).Decode.op
    in
    (match Cpu.step t with Some o -> out := Some o | None -> ());
    incr spent;
    sb.Cpu.sb_stats.Stats.sb_fallback <- sb.Cpu.sb_stats.Stats.sb_fallback + 1;
    if boundary then stop := true
    else begin
      let ip' = t.Cpu.ip in
      if
        ip' >= 0 && ip' < size
        && match sb.Cpu.sb_blocks.(ip') with Some _ -> true | None -> false
      then stop := true
    end
  done

(* Run up to [limit] instructions through the block cache.  Returns the
   instructions actually spent (exact, for engine slicing) and the
   terminal outcome if one occurred.  Falls back to pure interpretation
   when the machine is not [usable].  Cycle finalisation is the
   caller's job, as with [Cpu.step]. *)
let steps (t : Cpu.t) ~limit =
  let spent = ref 0 in
  let out = ref None in
  (try
     if not (usable t) then
       while !out = None && !spent < limit do
         incr spent;
         match Cpu.step t with Some o -> out := Some o | None -> ()
       done
     else begin
       select t;
       let sb = t.Cpu.sb in
       let size = Program.size t.Cpu.program in
       while !out = None && !spent < limit do
         let ip = t.Cpu.ip in
         if ip < 0 || ip >= size then begin
           (* out of range: one interpreter step produces the fault *)
           incr spent;
           match Cpu.step t with Some o -> out := Some o | None -> ()
         end
         else begin
           match sb.Cpu.sb_blocks.(ip) with
           | Some b when b.Cpu.sb_len <= limit - !spent ->
               sb.Cpu.sb_stats.Stats.sb_hits <-
                 sb.Cpu.sb_stats.Stats.sb_hits + 1;
               let n, o = exec_block t b in
               spent := !spent + n;
               out := o
           | Some _ ->
               (* the budget cannot cover the block: interpret the tail
                  so the slice boundary is instruction-exact *)
               interp_to_boundary t ~limit spent out
           | None ->
               sb.Cpu.sb_stats.Stats.sb_misses <-
                 sb.Cpu.sb_stats.Stats.sb_misses + 1;
               let c = sb.Cpu.sb_hot.(ip) + 1 in
               sb.Cpu.sb_hot.(ip) <- c;
               if c >= hot_threshold then compile_block t ip
               else interp_to_boundary t ~limit spent out
         end
       done
     end
   with Cpu.Exit_requested v -> out := Some (Cpu.Exited v));
  (* [Cpu.step] finalises the cycle count on terminal outcomes (via
     [finish]); mirror that for outcomes produced by compiled blocks *)
  (match !out with
  | Some _ -> t.Cpu.stats.Stats.cycles <- Pipeline.cycles t.Cpu.pipe
  | None -> ());
  (!spent, !out)

let run_for (t : Cpu.t) ~budget =
  if not (usable t) then Cpu.run_for t ~budget
  else
    Fun.protect
      ~finally:(fun () ->
        t.Cpu.stats.Stats.cycles <- Pipeline.cycles t.Cpu.pipe)
      (fun () ->
        let _spent, out = steps t ~limit:budget in
        match out with Some o -> `Finished o | None -> `Yielded)
