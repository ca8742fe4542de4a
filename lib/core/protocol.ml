(* The serve wire protocol: versioned JSONL.  Pure data — parsing and
   building only; the socket loop lives in serve.ml.  docs/PROTOCOL.md
   documents every kind in [kinds] and every code in [error_codes], and
   CI greps it against both lists. *)

module Mode = Shift_compiler.Mode
module Backend = Shift_tracking.Backend

let version = 1
let default_max_request_bytes = 1 lsl 20

type error_code =
  | Bad_json
  | Bad_request
  | Unsupported_version
  | Unknown_kind
  | Unknown_name
  | Oversized
  | Draining
  | Job_crashed

(* the error-code catalogue; keep in sync with docs/PROTOCOL.md (CI
   greps these strings) *)
let error_code_to_string = function
  | Bad_json -> "bad_json"
  | Bad_request -> "bad_request"
  | Unsupported_version -> "unsupported_version"
  | Unknown_kind -> "unknown_kind"
  | Unknown_name -> "unknown_name"
  | Oversized -> "oversized"
  | Draining -> "draining"
  | Job_crashed -> "job_crashed"

let error_codes =
  [
    Bad_json;
    Bad_request;
    Unsupported_version;
    Unknown_kind;
    Unknown_name;
    Oversized;
    Draining;
    Job_crashed;
  ]

type error = { code : error_code; message : string; error_id : string option }

(* the request-kind catalogue; keep in sync with docs/PROTOCOL.md (CI
   greps these strings) *)
let kinds = [ "run"; "attack"; "trace"; "batch"; "leak"; "status"; "drain" ]

type request =
  | Run of {
      kernel : string;
      mode : Mode.t;
      size : int option;
      safe : bool;
      superblocks : bool;
      backend : Backend.t;
    }
  | Attack of {
      case : string;
      mode : Mode.t;
      benign : bool;
      superblocks : bool;
      backend : Backend.t;
    }
  | Trace of {
      image : string;
      mode : Mode.t;
      benign : bool;
      ring : int;
      only : string option;
      superblocks : bool;
      backend : Backend.t;
    }
  | Batch of {
      kernels : string list;
      mode : Mode.t;
      size : int option;
      safe : bool;
      retries : int;
      superblocks : bool;
      backend : Backend.t;
    }
  | Leak of {
      case : string;
      mode : Mode.t;
      clause : Leak.clause;
      variants : int;
      superblocks : bool;
      backend : Backend.t;
    }
  | Status
  | Drain

type envelope = {
  id : string option;
  tenant : string option;
  deadline : int option;
  migrate_every : int option;
  request : request;
}

let kind_of_request = function
  | Run _ -> "run"
  | Attack _ -> "attack"
  | Trace _ -> "trace"
  | Batch _ -> "batch"
  | Leak _ -> "leak"
  | Status -> "status"
  | Drain -> "drain"

(* ---------- typed field extraction ---------- *)

let ( let* ) = Result.bind

let opt_field name conv ty j =
  match Results.member name j with
  | None | Some Results.Null -> Ok None
  | Some v -> (
      match conv v with
      | Some x -> Ok (Some x)
      | None -> Error (Printf.sprintf "field %S must be %s" name ty))

let string_field name =
  opt_field name (function Results.String s -> Some s | _ -> None) "a string"

let int_field name =
  opt_field name (function Results.Int i -> Some i | _ -> None) "an integer"

let bool_field name =
  opt_field name (function Results.Bool b -> Some b | _ -> None) "a boolean"

let string_list_field name =
  opt_field name
    (function
      | Results.List items ->
          let strings =
            List.filter_map
              (function Results.String s -> Some s | _ -> None)
              items
          in
          if List.length strings = List.length items then Some strings else None
      | _ -> None)
    "a list of strings"

let positive name v =
  match v with
  | Some n when n <= 0 -> Error (Printf.sprintf "field %S must be positive" name)
  | v -> Ok v

(* a trace's [events] field as Flowtrace event kinds *)
let event_kinds s =
  let kinds =
    List.map Shift_machine.Flowtrace.kind_of_string (String.split_on_char ',' s)
  in
  if List.mem None kinds then Error (Printf.sprintf "unknown event kind in %S" s)
  else Ok (List.filter_map Fun.id kinds)

(* the range check every request passes, off the wire or off the
   command line *)
let check request =
  let at_least bound what name v =
    if v >= bound then Ok ()
    else Error (Printf.sprintf "field %S must be %s" name what)
  in
  let size = function None -> Ok () | Some n -> at_least 1 "positive" "size" n in
  let* () =
    match request with
    | Run { size = s; _ } -> size s
    | Batch { size = s; retries; _ } ->
        let* () = size s in
        at_least 0 "non-negative" "retries" retries
    | Trace { ring; only; _ } ->
        let* () = at_least 1 "positive" "ring" ring in
        Option.fold ~none:(Ok ()) ~some:(fun s -> Result.map ignore (event_kinds s)) only
    | Leak { variants; _ } -> at_least 2 "at least 2" "variants" variants
    | Attack _ | Status | Drain -> Ok ()
  in
  Ok request

(* ---------- hello ---------- *)

let hello_of_json j =
  match j with
  | Results.Obj _ -> (
      match Results.member "proto_version" j with
      | Some (Results.Int v) -> Ok v
      | Some _ -> Error "\"proto_version\" must be an integer"
      | None -> Error "the first line must be a hello carrying \"proto_version\"")
  | _ -> Error "hello must be a JSON object"

(* ---------- requests ---------- *)

(* The three readers every job kind shares: its naming field, the
   engine triple with its defaults, and a default-false flag. *)

let required kind name j =
  let* v = string_field name j in
  let article = if String.contains "aeiou" name.[0] then "an" else "a" in
  Option.to_result ~none:(Printf.sprintf "%s requires %s %S" kind article name) v

let engine j =
  let of_name name default of_string =
    let* s = string_field name j in
    Option.fold ~none:(Ok default) ~some:of_string s
  in
  let* mode = of_name "mode" Mode.shift_word Mode.of_string in
  let* superblocks = bool_field "superblocks" j in
  let* backend = of_name "backend" Backend.Nat Backend.of_string in
  Ok (mode, Option.value ~default:true superblocks, backend)

let flag name j = Result.map (Option.value ~default:false) (bool_field name j)

let body_of_json kind j =
  match kind with
  | "run" ->
      let* kernel = required kind "kernel" j in
      let* mode, superblocks, backend = engine j in
      let* size = int_field "size" j in
      let* safe = flag "safe" j in
      Ok (Run { kernel; mode; size; safe; superblocks; backend })
  | "attack" ->
      let* case = required kind "case" j in
      let* mode, superblocks, backend = engine j in
      let* benign = flag "benign" j in
      Ok (Attack { case; mode; benign; superblocks; backend })
  | "trace" ->
      let* image = required kind "image" j in
      let* mode, superblocks, backend = engine j in
      let* benign = flag "benign" j in
      let* ring = int_field "ring" j in
      let* only = string_field "events" j in
      let ring = Option.value ~default:4096 ring in
      Ok (Trace { image; mode; benign; ring; only; superblocks; backend })
  | "batch" ->
      let* kernels = string_list_field "kernels" j in
      let* mode, superblocks, backend = engine j in
      let* size = int_field "size" j in
      let* safe = flag "safe" j in
      let* retries = int_field "retries" j in
      let kernels = Option.value ~default:[] kernels in
      let retries = Option.value ~default:0 retries in
      Ok (Batch { kernels; mode; size; safe; retries; superblocks; backend })
  | "leak" ->
      let* case = required kind "case" j in
      let* mode, superblocks, backend = engine j in
      let* clause = string_field "clause" j in
      let* clause = Option.fold ~none:(Ok Leak.Ct_seq) ~some:Leak.clause_of_string clause in
      let* variants = int_field "variants" j in
      let variants = Option.value ~default:4 variants in
      Ok (Leak { case; mode; clause; variants; superblocks; backend })
  | "status" -> Ok Status
  | "drain" -> Ok Drain
  | kind ->
      invalid_arg
        (Printf.sprintf
           "Protocol.body_of_json: kind %S passed the catalogue test but has \
            no parser"
           kind)

let request_of_json j =
  match j with
  | Results.Obj _ -> (
      let id = match string_field "id" j with Ok v -> v | Error _ -> None in
      let fail code message = Error { code; message; error_id = id } in
      match string_field "kind" j with
      | Error e -> fail Bad_request e
      | Ok None -> fail Bad_request "request requires a \"kind\""
      | Ok (Some kind) when not (List.mem kind kinds) ->
          fail Unknown_kind
            (Printf.sprintf "unknown kind %S (try: %s)" kind
               (String.concat ", " kinds))
      | Ok (Some kind) -> (
          let parsed =
            let* id = string_field "id" j in
            let* tenant = string_field "tenant" j in
            let* deadline = int_field "deadline" j in
            let* deadline = positive "deadline" deadline in
            let* migrate_every = int_field "migrate_every" j in
            let* migrate_every = positive "migrate_every" migrate_every in
            let* request = Result.bind (body_of_json kind j) check in
            Ok { id; tenant; deadline; migrate_every; request }
          in
          match parsed with
          | Ok env -> Ok env
          | Error message -> fail Bad_request message))
  | _ ->
      Error
        { code = Bad_request; message = "request must be a JSON object"; error_id = None }

let of_line ?(max_bytes = default_max_request_bytes) line =
  if String.length line > max_bytes then
    Error
      {
        code = Oversized;
        message =
          Printf.sprintf "request line of %d bytes exceeds the %d-byte cap"
            (String.length line) max_bytes;
        error_id = None;
      }
  else
    match Results.of_string line with
    | Error e ->
        Error { code = Bad_json; message = "not JSON: " ^ e; error_id = None }
    | Ok j -> request_of_json j

(* ---------- building lines ---------- *)

let hello = Results.Obj [ ("proto_version", Results.Int version) ]

let hello_ack ~max_request_bytes =
  Results.Obj
    [
      ("proto_version", Results.Int version);
      ("ok", Results.Bool true);
      ("server", Results.String "shiftc serve");
      ("max_request_bytes", Results.Int max_request_bytes);
    ]

let request_to_json (env : envelope) =
  let opt name v f = match v with None -> [] | Some x -> [ (name, f x) ] in
  let str s = Results.String s in
  let common =
    opt "id" env.id str
    @ [ ("kind", str (kind_of_request env.request)) ]
    @ opt "tenant" env.tenant str
    @ opt "deadline" env.deadline (fun d -> Results.Int d)
    @ opt "migrate_every" env.migrate_every (fun m -> Results.Int m)
  in
  let mode m = ("mode", str (Mode.to_string m)) in
  let bk b = ("backend", str (Backend.to_string b)) in
  let body =
    match env.request with
    | Run { kernel; mode = m; size; safe; superblocks; backend } ->
        [ ("kernel", str kernel); mode m ]
        @ opt "size" size (fun s -> Results.Int s)
        @ [
            ("safe", Results.Bool safe);
            ("superblocks", Results.Bool superblocks);
            bk backend;
          ]
    | Attack { case; mode = m; benign; superblocks; backend } ->
        [
          ("case", str case);
          mode m;
          ("benign", Results.Bool benign);
          ("superblocks", Results.Bool superblocks);
          bk backend;
        ]
    | Trace { image; mode = m; benign; ring; only; superblocks; backend } ->
        [
          ("image", str image);
          mode m;
          ("benign", Results.Bool benign);
          ("ring", Results.Int ring);
        ]
        @ opt "events" only str
        @ [ ("superblocks", Results.Bool superblocks); bk backend ]
    | Batch { kernels; mode = m; size; safe; retries; superblocks; backend } ->
        [ ("kernels", Results.List (List.map str kernels)); mode m ]
        @ opt "size" size (fun s -> Results.Int s)
        @ [
            ("safe", Results.Bool safe);
            ("retries", Results.Int retries);
            ("superblocks", Results.Bool superblocks);
            bk backend;
          ]
    | Leak { case; mode = m; clause; variants; superblocks; backend } ->
        [
          ("case", str case);
          mode m;
          ("clause", str (Leak.clause_to_string clause));
          ("variants", Results.Int variants);
          ("superblocks", Results.Bool superblocks);
          bk backend;
        ]
    | Status | Drain -> []
  in
  Results.Obj (common @ body)

let ok_response ?tenant ?id result =
  let opt name = function Some v -> [ (name, Results.String v) ] | None -> [] in
  Results.Obj
    (opt "id" id @ [ ("ok", Results.Bool true) ] @ opt "tenant" tenant @ [ ("result", result) ])

let error_response (e : error) =
  Results.Obj
    ((match e.error_id with
     | Some id -> [ ("id", Results.String id) ]
     | None -> [])
    @ [
        ("ok", Results.Bool false);
        ( "error",
          Results.Obj
            [
              ("code", Results.String (error_code_to_string e.code));
              ("message", Results.String e.message);
            ] );
      ])

let response_id j =
  match Results.member "id" j with Some (Results.String s) -> Some s | _ -> None

let response_ok j =
  match Results.member "ok" j with Some (Results.Bool b) -> b | _ -> false

let to_line j = Results.to_string ~minify:true j
