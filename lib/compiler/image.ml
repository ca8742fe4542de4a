type t = {
  program : Shift_isa.Program.t;
  data : (int64 * string) list;
  symbols : (string * int64) list;
  mode : Mode.t;
  func_sizes : (string * int) list;
  code : Shift_machine.Cpu.code option Atomic.t;
}

let make ~program ~data ~symbols ~mode ~func_sizes =
  { program; data; symbols; mode; func_sizes; code = Atomic.make None }

(* Built by the first session to start, then shared; two domains racing
   here may both decode, and the first to publish wins. *)
let code t =
  match Atomic.get t.code with
  | Some c -> c
  | None ->
      let c = Shift_machine.Cpu.code_of_program t.program in
      if Atomic.compare_and_set t.code None (Some c) then c
      else Option.get (Atomic.get t.code)

let code_size t = Shift_isa.Program.size t.program

let size_of_funcs t ~prefix =
  List.fold_left
    (fun acc (name, n) ->
      if String.length name >= String.length prefix
         && String.sub name 0 (String.length prefix) = prefix
      then acc + n
      else acc)
    0 t.func_sizes

let symbol t name = List.assoc name t.symbols
