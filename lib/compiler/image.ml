type t = {
  program : Shift_isa.Program.t;
  data : (int64 * string) list;
  symbols : (string * int64) list;
  mode : Mode.t;
  func_sizes : (string * int) list;
  code : Shift_machine.Cpu.code option Atomic.t;
  payload : string option Atomic.t;
}

let make ~program ~data ~symbols ~mode ~func_sizes =
  { program; data; symbols; mode; func_sizes; code = Atomic.make None;
    payload = Atomic.make None }

(* A derived field is built by its first user, then shared; two domains
   racing here may both build it, and the first to publish wins. *)
let once cell build =
  match Atomic.get cell with
  | Some v -> v
  | None ->
      let v = build () in
      if Atomic.compare_and_set cell None (Some v) then v else Option.get (Atomic.get cell)

let code t = once t.code (fun () -> Shift_machine.Cpu.code_of_program t.program)

let payload t =
  once t.payload (fun () ->
      Marshal.to_string (t.program, t.data, t.symbols, t.mode, t.func_sizes) [])

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
