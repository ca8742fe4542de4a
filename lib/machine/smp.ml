type state =
  | Running
  | Done of int64
  | Crashed of Fault.t * int

type hart = { id : int; cpu : Cpu.t; mutable state : state }

type t = {
  quantum : int;
  stack_top : int64;
  stack_stride : int64;
  mutable harts : hart list; (* kept in id order *)
  (* resumable scheduler state: the tail of the current round-robin
     round.  The head's [int] is what remains of its quantum, so a
     budget boundary can suspend mid-quantum and resume later without
     perturbing the instruction interleaving. *)
  mutable round : (hart * int) list;
  mutable finished : Cpu.outcome option;
}

let create ?(quantum = 50) ~stack_top ~stack_stride cpu =
  {
    quantum;
    stack_top;
    stack_stride;
    harts = [ { id = 0; cpu; state = Running } ];
    round = [];
    finished = None;
  }

let spawn t ~parent ~entry ~arg =
  let id = List.length t.harts in
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
    (Int64.sub t.stack_top (Int64.mul (Int64.of_int id) t.stack_stride));
  Cpu.set_nat cpu Shift_isa.Reg.sp false;
  Cpu.set_value cpu (Shift_isa.Reg.arg 0) arg;
  Cpu.set_nat cpu (Shift_isa.Reg.arg 0) false;
  cpu.Cpu.ip <- Int64.to_int entry;
  (* the new hart enters the schedule at the next round: [t.round] holds
     only harts that were runnable when the round started *)
  t.harts <- t.harts @ [ { id; cpu; state = Running } ];
  id

let state_of t id =
  List.find_opt (fun h -> h.id = id) t.harts |> Option.map (fun h -> h.state)

let cpu_of t id =
  List.find_opt (fun h -> h.id = id) t.harts |> Option.map (fun h -> h.cpu)

let stats t =
  Stats.concurrent (List.map (fun h -> h.cpu.Cpu.stats) t.harts)

(* run up to [n] instructions on a hart; returns the instructions
   actually spent.  Stops early only when the hart leaves [Running].
   Execution goes through the superblock driver, which interprets
   per-instruction whenever the fast path does not apply, so the
   interleaving is instruction-exact either way. *)
let run_steps hart n =
  if hart.state <> Running then 0
  else begin
    let spent, out = Superblock.steps hart.cpu ~limit:n in
    (match out with
    | None -> ()
    | Some (Cpu.Exited v) -> hart.state <- Done v
    | Some (Cpu.Faulted (Fault.Call_stack_underflow, _)) when hart.id > 0 ->
        (* a secondary hart returning from its entry function is a
           normal thread exit; its result is in r8 *)
        hart.state <- Done (Cpu.get_value hart.cpu Shift_isa.Reg.ret)
    | Some (Cpu.Faulted (f, ip)) -> hart.state <- Crashed (f, ip)
    | Some Cpu.Out_of_fuel ->
        (* the driver executes at most [n] instructions and carries no
           fuel of its own; only the bounded run loops can report
           exhaustion *)
        failwith
          "Smp.run_steps: Superblock.steps reported Out_of_fuel, but \
           single-slice execution is unfueled");
    spent
  end

let finalize_cycles t =
  List.iter
    (fun h -> h.cpu.Cpu.stats.Stats.cycles <- Pipeline.cycles h.cpu.Cpu.pipe)
    t.harts

let run_for t ~budget =
  match t.finished with
  | Some o -> `Finished o
  | None ->
      let spent = ref 0 in
      let yielded = ref false in
      (* keep per-hart cycle counts consistent even when a syscall
         handler raises (policy violations propagate as exceptions) *)
      Fun.protect ~finally:(fun () -> finalize_cycles t) @@ fun () ->
      while t.finished = None && not !yielded do
        match t.round with
        | [] -> (
            match
              List.filter_map
                (fun h -> if h.state = Running then Some (h, t.quantum) else None)
                t.harts
            with
            | [] ->
                (* every hart is finished or crashed but hart 0 was not:
                   cannot happen (hart 0 Running always progresses), but
                   stay safe *)
                t.finished <- Some Cpu.Out_of_fuel
            | runnable -> t.round <- runnable)
        | (hart, remaining) :: rest ->
            if hart.state <> Running then t.round <- rest
            else begin
              let allowance = min remaining (budget - !spent) in
              if allowance <= 0 then yielded := true
              else begin
                let used = run_steps hart allowance in
                spent := !spent + used;
                if hart.state = Running && remaining - used > 0 then
                  (* the budget cut the quantum short: stay at the head
                     so the schedule is independent of budget slicing *)
                  t.round <- (hart, remaining - used) :: rest
                else t.round <- rest;
                if hart.id = 0 then
                  match hart.state with
                  | Done v -> t.finished <- Some (Cpu.Exited v)
                  | Crashed (f, ip) -> t.finished <- Some (Cpu.Faulted (f, ip))
                  | Running -> ()
              end
            end
      done;
      (match t.finished with Some o -> `Finished o | None -> `Yielded)

let run ?(fuel = 2_000_000_000) t =
  match run_for t ~budget:fuel with
  | `Finished o -> o
  | `Yielded -> Cpu.Out_of_fuel

(* ---------- checkpoint/restore ---------- *)

let quantum t = t.quantum
let harts t = List.map (fun h -> (h.id, h.state, h.cpu)) t.harts
let round t = List.map (fun (h, rem) -> (h.id, rem)) t.round
let finished t = t.finished

let of_parts ?(quantum = 50) ~stack_top ~stack_stride ~harts ~round ~finished ()
    =
  let harts =
    List.map (fun (id, state, cpu) -> { id; state; cpu }) harts
  in
  (match harts with
  | { id = 0; _ } :: _ -> ()
  | _ -> invalid_arg "Smp.of_parts: hart 0 must be first");
  let round =
    List.map
      (fun (id, rem) ->
        match List.find_opt (fun h -> h.id = id) harts with
        | Some h -> (h, rem)
        | None -> invalid_arg "Smp.of_parts: round references an unknown hart")
      round
  in
  { quantum; stack_top; stack_stride; harts; round; finished }
