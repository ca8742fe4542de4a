open Shift_isa

type info = {
  op : Instr.op;
  qp : Pred.t;
  prov_index : int;
  latency : int;
  is_mem : bool;
  reads : Reg.t array;
  writes : Reg.t array;
  pred_writes : Pred.t array;
  target : int;
}

type t = info array

let no_regs : int array = [||]

(* the latency class: 1 ALU, 2 load, 3 multiply, 12 divide *)
let latency_of (op : Instr.op) =
  match op with
  | Instr.Ld _ -> 2
  | Instr.Arith (Instr.Mul, _, _, _) -> 3
  | Instr.Arith ((Instr.Div | Instr.Rem), _, _, _) -> 12
  | _ -> 1

let arr = function [] -> no_regs | l -> Array.of_list l

let info_of program (i : Instr.t) =
  let target =
    match i.Instr.op with
    | Instr.Br l | Instr.Call l | Instr.Lea (_, l) -> Program.target program l
    | Instr.Chk_s { recovery; _ } -> Program.target program recovery
    | _ -> -1
  in
  {
    op = i.Instr.op;
    qp = i.Instr.qp;
    prov_index = Prov.index i.Instr.prov;
    latency = latency_of i.Instr.op;
    is_mem = Instr.is_mem i.Instr.op;
    reads = arr (Instr.reads i.Instr.op);
    writes = arr (Instr.writes i.Instr.op);
    pred_writes = arr (Instr.writes_preds i.Instr.op);
    target;
  }

let of_program (p : Program.t) = Array.map (info_of p) p.Program.code
