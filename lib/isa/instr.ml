type width = W1 | W2 | W4 | W8

let bytes_of_width = function W1 -> 1 | W2 -> 2 | W4 -> 4 | W8 -> 8

type arith =
  | Add | Sub | Mul | Div | Rem
  | And | Or | Xor
  | Andcm
  | Shl | Shr
  | Sar

type operand = R of Reg.t | Imm of int64

type op =
  | Nop
  | Movi of Reg.t * int64
  | Mov of Reg.t * Reg.t
  | Arith of arith * Reg.t * Reg.t * operand
  | Cmp of {
      cond : Cond.t;
      pt : Pred.t;
      pf : Pred.t;
      src1 : Reg.t;
      src2 : operand;
      taint_aware : bool;
    }
  | Tnat of { pt : Pred.t; pf : Pred.t; src : Reg.t }
  | Extr of { dst : Reg.t; src : Reg.t; pos : int; len : int }
  | Ld of { width : width; dst : Reg.t; addr : Reg.t; spec : bool; fill : bool }
  | St of { width : width; addr : Reg.t; src : Reg.t; spill : bool }
  | Chk_s of { src : Reg.t; recovery : string }
  | Lea of Reg.t * string
  | Br of string
  | Br_reg of Reg.t
  | Call of string
  | Call_reg of Reg.t
  | Ret
  | Fetchadd of { dst : Reg.t; addr : Reg.t; inc : Reg.t }
  | Setnat of Reg.t
  | Clrnat of Reg.t
  | Syscall
  | Halt

type t = { qp : Pred.t; op : op; prov : Prov.t }

let mk ?(qp = Pred.p0) ?(prov = Prov.Orig) op = { qp; op; prov }

let is_mem = function Ld _ | St _ | Fetchadd _ -> true | _ -> false

let operand_reads = function R r -> [ r ] | Imm _ -> []

let reads = function
  | Nop | Movi _ | Lea _ | Br _ | Call _ | Halt -> []
  | Mov (_, s) -> [ s ]
  | Arith (_, _, s1, o) -> s1 :: operand_reads o
  | Cmp { src1; src2; _ } -> src1 :: operand_reads src2
  | Tnat { src; _ } -> [ src ]
  | Extr { src; _ } -> [ src ]
  | Ld { addr; _ } -> [ addr ]
  | St { addr; src; _ } -> [ addr; src ]
  | Fetchadd { addr; inc; _ } -> [ addr; inc ]
  | Chk_s { src; _ } -> [ src ]
  | Br_reg r | Call_reg r -> [ r ]
  | Ret -> []
  | Setnat r | Clrnat r -> [ r ]
  | Syscall ->
      Reg.sysnum :: List.init 6 Reg.sysarg

let writes = function
  | Nop | Br _ | Br_reg _ | Ret | Halt | Chk_s _ | Cmp _ | Tnat _ | St _ -> []
  | Movi (d, _) | Mov (d, _) | Lea (d, _) | Arith (_, d, _, _) | Ld { dst = d; _ }
  | Extr { dst = d; _ } | Fetchadd { dst = d; _ } -> [ d ]
  | Setnat r | Clrnat r -> [ r ]
  | Call _ | Call_reg _ -> [ Reg.ret ]
  | Syscall -> [ Reg.ret ]

let writes_preds = function
  | Cmp { pt; pf; _ } | Tnat { pt; pf; _ } -> [ pt; pf ]
  | _ -> []

let arith_to_string = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Rem -> "rem"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Andcm -> "andcm"
  | Shl -> "shl"
  | Shr -> "shr"
  | Sar -> "sar"

let width_to_string = function W1 -> "1" | W2 -> "2" | W4 -> "4" | W8 -> "8"

let operand_to_string = function
  | R r -> Reg.to_string r
  | Imm i -> Int64.to_string i

let op_to_string = function
  | Nop -> "nop"
  | Movi (d, i) -> Printf.sprintf "movl %s = %Ld" (Reg.to_string d) i
  | Mov (d, s) -> Printf.sprintf "mov %s = %s" (Reg.to_string d) (Reg.to_string s)
  | Arith (a, d, s1, o) ->
      Printf.sprintf "%s %s = %s, %s" (arith_to_string a) (Reg.to_string d)
        (Reg.to_string s1) (operand_to_string o)
  | Cmp { cond; pt; pf; src1; src2; taint_aware } ->
      Printf.sprintf "cmp%s.%s %s, %s = %s, %s"
        (if taint_aware then ".ta" else "")
        (Cond.to_string cond) (Pred.to_string pt) (Pred.to_string pf)
        (Reg.to_string src1) (operand_to_string src2)
  | Tnat { pt; pf; src } ->
      Printf.sprintf "tnat %s, %s = %s" (Pred.to_string pt) (Pred.to_string pf)
        (Reg.to_string src)
  | Extr { dst; src; pos; len } ->
      Printf.sprintf "extr %s = %s, %d, %d" (Reg.to_string dst) (Reg.to_string src) pos len
  | Ld { width; dst; addr; spec; fill } ->
      Printf.sprintf "ld%s%s %s = [%s]" (width_to_string width)
        (if fill then ".fill" else if spec then ".s" else "")
        (Reg.to_string dst) (Reg.to_string addr)
  | St { width; addr; src; spill } ->
      Printf.sprintf "st%s%s [%s] = %s" (width_to_string width)
        (if spill then ".spill" else "")
        (Reg.to_string addr) (Reg.to_string src)
  | Chk_s { src; recovery } ->
      Printf.sprintf "chk.s %s, %s" (Reg.to_string src) recovery
  | Lea (d, l) -> Printf.sprintf "lea %s = %s" (Reg.to_string d) l
  | Br l -> Printf.sprintf "br %s" l
  | Br_reg r -> Printf.sprintf "br %s" (Reg.to_string r)
  | Call l -> Printf.sprintf "br.call %s" l
  | Call_reg r -> Printf.sprintf "br.call %s" (Reg.to_string r)
  | Ret -> "br.ret"
  | Fetchadd { dst; addr; inc } ->
      Printf.sprintf "fetchadd8 %s = [%s], %s" (Reg.to_string dst) (Reg.to_string addr)
        (Reg.to_string inc)
  | Setnat r -> Printf.sprintf "setnat %s" (Reg.to_string r)
  | Clrnat r -> Printf.sprintf "clrnat %s" (Reg.to_string r)
  | Syscall -> "syscall"
  | Halt -> "halt"

let to_string { qp; op; prov } =
  let qps = if qp = Pred.p0 then "      " else Printf.sprintf "(%s) " (Pred.to_string qp) in
  let base = qps ^ op_to_string op in
  match prov with
  | Prov.Orig -> base
  | p -> Printf.sprintf "%-40s ;; %s" base (Prov.to_string p)

let pp ppf i = Format.pp_print_string ppf (to_string i)
