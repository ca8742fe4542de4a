open Shift_mem

let tc = Util.tc

let prop name ?(count = 300) arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

(* a valid region-1 address with room above the null guard *)
let arb_addr =
  QCheck.map
    (fun n -> Addr.in_region 1 (Int64.of_int (4096 + abs n mod 1_000_000)))
    QCheck.int

let addr_tests =
  [
    tc "region extraction" (fun () ->
        Util.check_int "r1" 1 (Addr.region (Addr.in_region 1 0x1234L));
        Util.check_int "r7" 7 (Addr.region (Addr.in_region 7 0x1234L));
        Util.check_int "r0" 0 (Addr.region 0x42L));
    tc "offset extraction" (fun () ->
        Util.check_i64 "off" 0x1234L (Addr.offset (Addr.in_region 3 0x1234L)));
    tc "canonical addresses" (fun () ->
        Util.check_bool "plain" true (Addr.is_canonical (Addr.in_region 1 0x1000L));
        Util.check_bool "unimplemented bit" false
          (Addr.is_canonical (Int64.shift_left 1L 45));
        Util.check_bool "region bits alone ok" true
          (Addr.is_canonical (Addr.in_region 5 0L)));
    tc "null guard" (fun () ->
        Util.check_bool "null" false (Addr.is_valid (Addr.in_region 1 0L));
        Util.check_bool "4095" false (Addr.is_valid (Addr.in_region 1 4095L));
        Util.check_bool "4096" true (Addr.is_valid (Addr.in_region 1 4096L)));
    prop "tag addresses live in region 0" arb_addr (fun a ->
        Addr.region (Addr.tag_addr Granularity.Byte a) = 0
        && Addr.region (Addr.tag_addr Granularity.Word a) = 0);
    prop "tag bit in range" arb_addr (fun a ->
        let b1 = Addr.tag_bit Granularity.Byte a in
        let b2 = Addr.tag_bit Granularity.Word a in
        b1 >= 0 && b1 < 8 && b2 >= 0 && b2 < 8);
    prop "adjacent bytes share a bitmap byte at byte granularity" arb_addr (fun a ->
        let a' = Int64.add (Int64.logand a (Int64.lognot 7L)) 3L in
        Addr.tag_addr Granularity.Byte a' = Addr.tag_addr Granularity.Byte (Int64.add a' 1L))
    ;
    tc "different regions map to disjoint tag bytes" (fun () ->
        let a1 = Addr.in_region 1 0x5000L and a2 = Addr.in_region 2 0x5000L in
        Util.check_bool "disjoint" true
          (Addr.tag_addr Granularity.Byte a1 <> Addr.tag_addr Granularity.Byte a2));
    tc "word mask is a single bit" (fun () ->
        let a = Addr.in_region 1 0x5008L in
        Util.check_i64 "mask" 2L (Addr.tag_mask Granularity.Word ~width:8 a));
    tc "byte mask covers the access width" (fun () ->
        let a = Addr.in_region 1 0x5000L in
        Util.check_i64 "w8" 0xFFL (Addr.tag_mask Granularity.Byte ~width:8 a);
        Util.check_i64 "w1" 0x1L (Addr.tag_mask Granularity.Byte ~width:1 a);
        let a3 = Int64.add a 3L in
        Util.check_i64 "w1@3" 0x8L (Addr.tag_mask Granularity.Byte ~width:1 a3));
  ]

let memory_tests =
  [
    tc "zero-initialised" (fun () ->
        let m = Memory.create () in
        Util.check_i64 "fresh" 0L (Memory.read m (Addr.in_region 1 0x9999L) ~width:8));
    prop "u8 roundtrip" QCheck.(pair arb_addr (int_bound 255)) (fun (a, b) ->
        let m = Memory.create () in
        Memory.write_u8 m a b;
        Memory.read_u8 m a = b);
    prop "u64 little-endian roundtrip" QCheck.(pair arb_addr (map Int64.of_int int))
      (fun (a, value) ->
        let m = Memory.create () in
        Memory.write m a ~width:8 value;
        Memory.read m a ~width:8 = value
        && Memory.read_u8 m a = Int64.to_int (Int64.logand value 0xffL));
    prop "narrow writes zero-extend on read" QCheck.(pair arb_addr (map Int64.of_int int))
      (fun (a, value) ->
        let m = Memory.create () in
        Memory.write m a ~width:2 value;
        Memory.read m a ~width:2 = Int64.logand value 0xffffL);
    tc "cross-page access" (fun () ->
        let m = Memory.create () in
        let a = Addr.in_region 1 (Int64.of_int (8192 - 4)) in
        Memory.write m a ~width:8 0x1122334455667788L;
        Util.check_i64 "crosses" 0x1122334455667788L (Memory.read m a ~width:8));
    tc "cstring roundtrip" (fun () ->
        let m = Memory.create () in
        let a = Addr.in_region 1 0x8000L in
        Memory.write_cstring m a "hello world";
        Util.check_string "read" "hello world" (Memory.read_cstring m a));
    tc "bytes roundtrip" (fun () ->
        let m = Memory.create () in
        let a = Addr.in_region 1 0x8100L in
        Memory.write_bytes m a "\x00\x01\x02binary\xff";
        Util.check_string "read" "\x00\x01\x02binary\xff" (Memory.read_bytes m a ~len:10));
  ]

(* ---------- the byte model ----------

   Memory is checked against the plainest possible memory: a table from
   address to byte, absent = zero.  The model knows nothing of pages,
   the TLB or word-width primitives, so any disagreement is a fault in
   those. *)

module Byte_model = struct
  type t = (int64, char) Hashtbl.t

  let create () : t = Hashtbl.create 256
  let at a i = Int64.add a (Int64.of_int i)
  let get (m : t) a = Option.value ~default:'\000' (Hashtbl.find_opt m a)

  let read m a ~width =
    let v = ref 0L in
    for i = width - 1 downto 0 do
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code (get m (at a i))))
    done;
    !v

  let write m a ~width v =
    for i = 0 to width - 1 do
      let b = Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff in
      Hashtbl.replace m (at a i) (Char.chr b)
    done

  let read_bytes m a ~len = String.init len (fun i -> get m (at a i))
  let write_bytes m a s = String.iteri (fun i c -> Hashtbl.replace m (at a i) c) s

  let read_cstring ~max m a =
    let rec len i = if i < max && get m (at a i) <> '\000' then len (i + 1) else i in
    read_bytes m a ~len:(len 0)
end

type mem_op =
  | Write of int64 * int * int64  (** address, width, value *)
  | Read of int64 * int
  | Write_bytes of int64 * string
  | Read_bytes of int64 * int
  | Write_cstring of int64 * string
  | Read_cstring of int64 * int  (** address, max *)

let pp_mem_op = function
  | Write (a, w, v) -> Printf.sprintf "write %Lx w%d %Lx" a w v
  | Read (a, w) -> Printf.sprintf "read %Lx w%d" a w
  | Write_bytes (a, s) -> Printf.sprintf "write_bytes %Lx %S" a s
  | Read_bytes (a, n) -> Printf.sprintf "read_bytes %Lx %d" a n
  | Write_cstring (a, s) -> Printf.sprintf "write_cstring %Lx %S" a s
  | Read_cstring (a, n) -> Printf.sprintf "read_cstring %Lx max %d" a n

(* the byte range an operation may touch, for the final sweep *)
let op_extent = function
  | Write (a, w, _) | Read (a, w) -> (a, w)
  | Write_bytes (a, s) -> (a, String.length s)
  | Write_cstring (a, s) -> (a, String.length s + 1)
  | Read_bytes (a, n) | Read_cstring (a, n) -> (a, n)

(* Addresses on 3 x 96 region-1 pages: the pages of one column share a
   TLB slot (page numbers 64k + s), so successive accesses keep
   evicting each other from the 64-entry TLB.  Slot 63 is followed by
   slot 0 of the next column, and a third of the offsets sit within 8
   bytes of the page end, so accesses straddle pages and slots. *)
let gen_model_addr =
  QCheck.Gen.(
    let* slot = oneofl [ 0; 1; 63 ]
    and* column = int_range 1 96
    and* off = frequency [ (2, int_bound 4095); (1, map (fun b -> 4095 - b) (int_bound 8)) ] in
    return (Addr.in_region 1 (Int64.of_int ((((64 * column) + slot) * 4096) + off))))

let gen_mem_op =
  QCheck.Gen.(
    let* a = gen_model_addr in
    let str = string_size ~gen:char (int_bound 24) in
    frequency
      [
        (4, map2 (fun w v -> Write (a, w, v)) (int_range 1 8) ui64);
        (4, map (fun w -> Read (a, w)) (int_range 1 8));
        (1, map (fun s -> Write_bytes (a, s)) str);
        (1, map (fun n -> Read_bytes (a, n)) (int_bound 24));
        (1, map (fun s -> Write_cstring (a, s)) (string_size ~gen:printable (int_bound 24)));
        (1, map (fun n -> Read_cstring (a, n)) (int_bound 32));
      ])

let arb_mem_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_mem_op ops))
    QCheck.Gen.(list_size (int_range 100 250) gen_mem_op)

(* run [ops] on a memory and on the model; every read must agree, and
   afterwards so must every byte any operation could have touched *)
let agrees_with_byte_model ops =
  let m = Memory.create () and model = Byte_model.create () in
  let step = function
    | Write (a, width, v) ->
        Memory.write m a ~width v;
        Byte_model.write model a ~width v;
        true
    | Read (a, width) -> Memory.read m a ~width = Byte_model.read model a ~width
    | Write_bytes (a, s) ->
        Memory.write_bytes m a s;
        Byte_model.write_bytes model a s;
        true
    | Read_bytes (a, len) -> Memory.read_bytes m a ~len = Byte_model.read_bytes model a ~len
    | Write_cstring (a, s) ->
        Memory.write_cstring m a s;
        Byte_model.write_bytes model a (s ^ "\000");
        true
    | Read_cstring (a, max) ->
        Memory.read_cstring ~max m a = Byte_model.read_cstring ~max model a
  in
  List.for_all step ops
  && List.for_all
       (fun op ->
         let a, len = op_extent op in
         List.for_all
           (fun i ->
             let b = Byte_model.at a i in
             Memory.read_u8 m b = Char.code (Byte_model.get model b))
           (List.init len Fun.id))
       ops

let model_tests =
  let widths = [ 1; 2; 4; 8 ] in
  [
    tc "page-boundary-crossing stores and loads (every width)" (fun () ->
        List.iter
          (fun width ->
            List.iter
              (fun back ->
                (* straddle the page boundary at offset 8192 by [back] bytes *)
                let a = Addr.in_region 1 (Int64.of_int (8192 - back)) in
                let m = Memory.create () in
                let v = 0x1122334455667788L in
                Memory.write m a ~width v;
                let expect =
                  if width = 8 then v
                  else Int64.logand v (Int64.sub (Int64.shift_left 1L (8 * width)) 1L)
                in
                Util.check_i64
                  (Printf.sprintf "w%d back %d" width back)
                  expect (Memory.read m a ~width))
              (List.init width Fun.id))
          widths);
    tc "TLB stays consistent across conflicting pages after writes" (fun () ->
        (* 200 pages map onto the 64-entry direct-mapped TLB with
           conflicts; every page must still read back its own bytes *)
        let m = Memory.create () in
        let page_addr k = Addr.in_region 1 (Int64.of_int (4096 * (1 + k))) in
        for k = 0 to 199 do
          Memory.write_u8 m (page_addr k) (k land 0xff)
        done;
        for k = 0 to 199 do
          Util.check_int (Printf.sprintf "page %d" k) (k land 0xff)
            (Memory.read_u8 m (page_addr k))
        done;
        for k = 0 to 199 do
          Memory.write m (page_addr k) ~width:2 (Int64.of_int (0x100 + k))
        done;
        for k = 0 to 199 do
          Util.check_i64
            (Printf.sprintf "page %d after write" k)
            (Int64.of_int (0x100 + k))
            (Memory.read m (page_addr k) ~width:2)
        done);
    prop "interleaved accesses on TLB-colliding pages = byte model" ~count:300
      arb_mem_ops agrees_with_byte_model;
    tc "a transfer longer than a page blits every page it spans" (fun () ->
        let a = Addr.in_region 1 (Int64.of_int ((64 * 4096) + 4000)) in
        let s = String.init 10_000 (fun i -> Char.chr (1 + (i mod 255))) in
        Util.check_bool "agrees" true
          (agrees_with_byte_model
             [
               Write_bytes (a, s);
               Read_bytes (Int64.sub a 8L, 10_016);
               Read_cstring (a, 20_000);
               Write (Int64.add a 4095L, 8, -1L);
               Read_bytes (a, 10_000);
             ]));
    prop "cstrings stop at the NUL and at max" ~count:200
      QCheck.(pair (int_bound 4090) small_printable_string)
      (fun (off, s) ->
        let s = String.concat "" (String.split_on_char '\000' s) in
        let a = Addr.in_region 1 (Int64.of_int (4096 + off)) in
        let m = Memory.create () in
        Memory.write_cstring m a s;
        Memory.read_cstring m a = s
        && Memory.read_cstring ~max:3 m a = String.sub s 0 (min 3 (String.length s)));
  ]

(* ---------- the bit model ----------

   One tag bit per grain: a grain is a byte, or at word granularity
   the aligned 8-byte word, of one region's implemented offset.  This
   is what the bitmap means, stated without the bitmap's layout. *)

module Bit_model = struct
  type t = (int * int64, unit) Hashtbl.t

  let create () : t = Hashtbl.create 256

  let grain g a =
    let off = Addr.offset a in
    ( Addr.region a,
      match g with Granularity.Byte -> off | Granularity.Word -> Int64.shift_right_logical off 3 )

  let at a i = Int64.add a (Int64.of_int i)
  let is_tainted m g a = Hashtbl.mem m (grain g a)

  let set_range m g ~addr ~len ~tainted =
    for i = 0 to len - 1 do
      let k = grain g (at addr i) in
      if tainted then Hashtbl.replace m k () else Hashtbl.remove m k
    done

  let bits m g ~addr ~len = List.init len (fun i -> is_tainted m g (at addr i))
  let count m g ~addr ~len = List.length (List.filter Fun.id (bits m g ~addr ~len))

  let first m g ~addr ~len =
    let rec go i = function
      | [] -> None
      | true :: _ -> Some i
      | false :: rest -> go (i + 1) rest
    in
    go 0 (bits m g ~addr ~len)
end

(* Ranges within one region (long enough for the 8-byte strides of the
   span walk at either granularity) and, one time in eight, ranges that
   run off the end of region 1's implemented offsets: into the
   unimplemented bits, whose tag bits alias offset 0, or on into
   region 2.  Those take the per-bit walk. *)
let gen_taint_range =
  QCheck.Gen.(
    let region_end = Int64.sub (Addr.in_region 2 0L) 1L in
    let impl_end = Addr.in_region 1 Addr.impl_mask in
    let* len = frequency [ (3, int_range 1 80); (1, int_range 1 1500) ] in
    let* addr =
      frequency
        [
          (7, map (fun off -> Addr.in_region 1 (Int64.of_int (0x9000 + off))) (int_bound 2000));
          ( 1,
            map2
              (fun base back -> Int64.sub base (Int64.of_int back))
              (oneofl [ impl_end; region_end ])
              (int_bound 40) );
        ]
    in
    return (addr, len))

type taint_case = {
  gran : Granularity.t;
  sets : (int64 * int * bool) list;
  queries : (int64 * int) list;
}

let gran_name = function Granularity.Byte -> "byte" | Granularity.Word -> "word"

let arb_taint_case gran =
  let print c =
    Printf.sprintf "%s sets [%s] queries [%s]" (gran_name c.gran)
      (String.concat "; "
         (List.map (fun (a, n, t) -> Printf.sprintf "%Lx+%d %b" a n t) c.sets))
      (String.concat "; " (List.map (fun (a, n) -> Printf.sprintf "%Lx+%d" a n) c.queries))
  in
  QCheck.make ~print
    QCheck.Gen.(
      let* sets = list_size (int_bound 12) (pair gen_taint_range bool)
      and* queries = list_size (int_range 1 8) gen_taint_range in
      return
        { gran; sets = List.map (fun ((a, n), t) -> (a, n, t)) sets; queries })

let agrees_with_bit_model { gran = g; sets; queries } =
  let m = Memory.create () and model = Bit_model.create () in
  List.iter
    (fun (addr, len, tainted) ->
      Taint.set_range m g ~addr ~len ~tainted;
      Bit_model.set_range model g ~addr ~len ~tainted)
    sets;
  let same_bits (addr, len) =
    List.for_all
      (fun i ->
        let a = Bit_model.at addr i in
        Taint.is_tainted m g a = Bit_model.is_tainted model g a)
      (List.init len Fun.id)
  in
  let same_queries (addr, len) =
    Taint.count_tainted m g ~addr ~len = Bit_model.count model g ~addr ~len
    && Taint.any_tainted m g ~addr ~len = (Bit_model.count model g ~addr ~len > 0)
    && Taint.first_tainted m g ~addr ~len = Bit_model.first model g ~addr ~len
    && Taint.tainted_string_positions m g addr (String.make len 'x')
       = List.filter (fun i -> Bit_model.is_tainted model g (Bit_model.at addr i))
           (List.init len Fun.id)
  in
  let set_extents = List.map (fun (a, n, _) -> (a, n)) sets in
  List.for_all same_bits set_extents
  && List.for_all same_queries (queries @ set_extents)

let taint_tests =
  let gran = [ Granularity.Byte; Granularity.Word ] in
  [
    tc "fresh memory is clean" (fun () ->
        let m = Memory.create () in
        List.iter
          (fun g ->
            Util.check_bool "clean" false (Taint.is_tainted m g (Addr.in_region 1 0x7000L)))
          gran);
    prop "set then get" QCheck.(pair arb_addr (int_bound 64)) (fun (a, len) ->
        let len = len + 1 in
        List.for_all
          (fun g ->
            let m = Memory.create () in
            Taint.set_range m g ~addr:a ~len ~tainted:true;
            Taint.count_tainted m g ~addr:a ~len = len)
          gran);
    prop "set then clear" QCheck.(pair arb_addr (int_bound 64)) (fun (a, len) ->
        let len = len + 1 in
        List.for_all
          (fun g ->
            let m = Memory.create () in
            Taint.set_range m g ~addr:a ~len ~tainted:true;
            Taint.set_range m g ~addr:a ~len ~tainted:false;
            Taint.count_tainted m g ~addr:a ~len = 0)
          gran);
    tc "byte granularity is precise" (fun () ->
        let m = Memory.create () in
        let a = Addr.in_region 1 0x7100L in
        Taint.set_range m Granularity.Byte ~addr:(Int64.add a 1L) ~len:1 ~tainted:true;
        Util.check_bool "left clean" false (Taint.is_tainted m Granularity.Byte a);
        Util.check_bool "hit" true (Taint.is_tainted m Granularity.Byte (Int64.add a 1L));
        Util.check_bool "right clean" false
          (Taint.is_tainted m Granularity.Byte (Int64.add a 2L)));
    tc "word granularity is conservative" (fun () ->
        let m = Memory.create () in
        let a = Addr.in_region 1 0x7200L in
        Taint.set_range m Granularity.Word ~addr:(Int64.add a 1L) ~len:1 ~tainted:true;
        Util.check_bool "whole word tainted" true (Taint.is_tainted m Granularity.Word a);
        Util.check_bool "next word clean" false
          (Taint.is_tainted m Granularity.Word (Int64.add a 8L)));
    tc "first_tainted and positions" (fun () ->
        let m = Memory.create () in
        let a = Addr.in_region 1 0x7300L in
        Taint.set_range m Granularity.Byte ~addr:(Int64.add a 5L) ~len:2 ~tainted:true;
        Util.check_bool "first" true
          (Taint.first_tainted m Granularity.Byte ~addr:a ~len:16 = Some 5);
        Util.check_bool "any" true (Taint.any_tainted m Granularity.Byte ~addr:a ~len:16);
        Memory.write_cstring m a "0123456789";
        Util.check_bool "positions" true
          (Taint.tainted_string_positions m Granularity.Byte a "0123456789" = [ 5; 6 ]));
    tc "ranges that run off a region agree with the bit model" (fun () ->
        let impl_end = Addr.in_region 1 Addr.impl_mask in
        let region_end = Int64.sub (Addr.in_region 2 0L) 1L in
        List.iter
          (fun gran ->
            List.iter
              (fun (last, back, len) ->
                let addr = Int64.sub last (Int64.of_int back) in
                Util.check_bool
                  (Printf.sprintf "%s %Lx+%d" (gran_name gran) addr len)
                  true
                  (agrees_with_bit_model
                     {
                       gran;
                       sets = [ (addr, len, true); (Int64.add addr 3L, 2, false) ];
                       queries = [ (Int64.sub addr 16L, len + 32) ];
                     }))
              [ (impl_end, 5, 20); (impl_end, 20, 70); (region_end, 5, 20); (region_end, 30, 90) ])
          [ Granularity.Byte; Granularity.Word ]);
  ]
  @ List.map
      (fun g ->
        prop
          (Printf.sprintf "set_range and the queries = per-grain bit model (%s)" (gran_name g))
          ~count:300 (arb_taint_case g) agrees_with_bit_model)
      [ Granularity.Byte; Granularity.Word ]

let suites =
  [
    ("mem.addr", addr_tests);
    ("mem.memory", memory_tests);
    ("mem.model", model_tests);
    ("mem.taint", taint_tests);
  ]
