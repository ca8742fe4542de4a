(* Threads: harts on a concurrent Sched machine, spawned on the
   parent's memory.  The round robin, and with it the join state, is
   Sched's. *)

let create ?quantum cpu = Sched.create ~shape:Sched.Concurrent ?quantum ~primary:0 cpu

let spawn sched ~stack_top ~stack_stride ~parent ~entry ~arg =
  let id = List.length (Sched.tasks sched) in
  let cpu = Cpu.of_code ~mem:parent.Cpu.mem parent.Cpu.code in
  (* inherit the register file: the reserved instrumentation constants
     (implemented-bits mask, scratch slot, NaT source) must be live in
     the child too *)
  Array.blit parent.Cpu.values 0 cpu.Cpu.values 0 (Array.length parent.Cpu.values);
  Array.blit parent.Cpu.nats 0 cpu.Cpu.nats 0 (Array.length parent.Cpu.nats);
  cpu.Cpu.syscall_handler <- parent.Cpu.syscall_handler;
  (* share the parent's flow trace (one ring per machine) and inherit
     its register provenance alongside the register file *)
  cpu.Cpu.flowtrace <- parent.Cpu.flowtrace;
  Flowtrace.copy_regs parent.Cpu.ftregs cpu.Cpu.ftregs;
  (* the child runs the parent's code, block tables included, and
     follows its enable switch; sharing the parent's memory means a
     code-region store detaches every hart that watches it *)
  cpu.Cpu.sb.Cpu.sb_on <- parent.Cpu.sb.Cpu.sb_on;
  (* one tag coprocessor per machine: harts share the backend handle *)
  cpu.Cpu.tracking <- parent.Cpu.tracking;
  Cpu.set_value cpu Shift_isa.Reg.sp
    (Int64.sub stack_top (Int64.mul (Int64.of_int id) stack_stride));
  Cpu.set_nat cpu Shift_isa.Reg.sp false;
  Cpu.set_value cpu (Shift_isa.Reg.arg 0) arg;
  Cpu.set_nat cpu (Shift_isa.Reg.arg 0) false;
  cpu.Cpu.ip <- Int64.to_int entry;
  ignore (Sched.spawn sched ~id cpu : Sched.task);
  id

let join sched id =
  match Sched.find sched id with
  | Some { Sched.state = Sched.Running; _ } -> None
  | Some { Sched.state = Sched.Done v; _ } -> Some v
  | Some { Sched.state = Sched.Crashed _; _ } | None -> Some (-1L)

let of_parts ~quantum ~harts ~round ~finished () =
  Sched.of_parts ~shape:Sched.Concurrent ~quantum ~primary:0 ~tasks:harts ~round
    ~finished ~retired:(Stats.create ()) ()
