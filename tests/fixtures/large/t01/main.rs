#![allow(dead_code, unused_unsafe, unused_variables, static_mut_refs, non_upper_case_globals)]
// generated large target; every unsafe region carries one UB marker

static mut tally: i64 = 0;
const LIMIT_MAX: usize = 28;
const BANNER: &str = r#"unsafe { fn fake() { } } "quoted" {"#;

fn helper_0<'a>(text: &'a str) -> usize {
    let _banner = r#"raw string with unsafe {{ braces }} and "quotes" inside"#;
    /* block comment { with /* a nested } comment */ and unsafe { text } */
    let _label = "string with { an open brace and unsafe { in it";
    if text.is_empty() { LIMIT_MAX } else { text.len() }
}

fn helper_1<'a>(text: &'a str) -> usize {
    // a stray closing brace } and an opening one {, plus the word unsafe {
    let _banner = r#"raw string with unsafe {{ braces }} and "quotes" inside"#;
    /* block comment { with /* a nested } comment */ and unsafe { text } */
    if text.is_empty() { LIMIT_MAX } else { text.len() }
}

fn helper_2<'a>(text: &'a str) -> usize {
    let _raw = r"plain raw string with } brace";
    let _cap = LIMIT_MAX.min(usize::MAX / 2);
    let _open = '{';
    let _close = '}';
    if text.is_empty() { LIMIT_MAX } else { text.len() }
}

fn helper_3<'a>(text: &'a str) -> usize {
    let _raw = r"plain raw string with } brace";
    let _open = '{';
    let _close = '}';
    /* block comment { with /* a nested } comment */ and unsafe { text } */
    if text.is_empty() { LIMIT_MAX } else { text.len() }
}

fn region_0(seed: i64) -> i64 {
    /* block comment { with /* a nested } comment */ and unsafe { text } */
    // a stray closing brace } and an opening one {, plus the word unsafe {
    let cell = seed * 3 + (119);
    let ptr = &cell as *const i64;
    let v = unsafe {
        //~UB attempting a read access using <5833> at alloc8899[0x0], but that tag does not exist in the borrow stack for this location
        *ptr + 51
    };
    v
}

fn helper_4<'a>(text: &'a str) -> usize {
    let _cap = LIMIT_MAX.min(usize::MAX / 2);
    let _open = '{';
    let _close = '}';
    // a stray closing brace } and an opening one {, plus the word unsafe {
    if text.is_empty() { LIMIT_MAX } else { text.len() }
}

fn helper_5<'a>(text: &'a str) -> usize {
    // a stray closing brace } and an opening one {, plus the word unsafe {
    let _label = "string with { an open brace and unsafe { in it";
    let _cap = LIMIT_MAX.min(usize::MAX / 2);
    if text.is_empty() { LIMIT_MAX } else { text.len() }
}

fn helper_6<'a>(text: &'a str) -> usize {
    let _label = "string with { an open brace and unsafe { in it";
    let _raw = r"plain raw string with } brace";
    let _raw = r"plain raw string with } brace";
    if text.is_empty() { LIMIT_MAX } else { text.len() }
}

unsafe fn bump_1(by: i64) -> i64 {
    //~UB memory access failed: alloc1691 has been freed, so this pointer is dangling
    tally += by;
    tally
}

fn call_1() -> i64 {
    let _open = '{';
    let _close = '}';
    let _raw = r"plain raw string with } brace";
    let seen = unsafe {
        //~UB calling a function with calling convention "C" using calling convention "Rust"
        bump_1(46)
    };
    seen
}

fn helper_7<'a>(text: &'a str) -> usize {
    let _label = "string with { an open brace and unsafe { in it";
    /* block comment { with /* a nested } comment */ and unsafe { text } */
    /* block comment { with /* a nested } comment */ and unsafe { text } */
    if text.is_empty() { LIMIT_MAX } else { text.len() }
}

fn helper_8<'a>(text: &'a str) -> usize {
    let _banner = r#"raw string with unsafe {{ braces }} and "quotes" inside"#;
    let _cap = LIMIT_MAX.min(usize::MAX / 2);
    let _cap = LIMIT_MAX.min(usize::MAX / 2);
    if text.is_empty() { LIMIT_MAX } else { text.len() }
}

fn helper_9<'a>(text: &'a str) -> usize {
    let _open = '{';
    let _close = '}';
    let _cap = LIMIT_MAX.min(usize::MAX / 2);
    /* block comment { with /* a nested } comment */ and unsafe { text } */
    if text.is_empty() { LIMIT_MAX } else { text.len() }
}

fn region_2(seed: i64) -> i64 {
    let _cap = LIMIT_MAX.min(usize::MAX / 2);
    let _banner = r#"raw string with unsafe {{ braces }} and "quotes" inside"#;
    let cell = seed * 3 + (-73);
    let ptr = &cell as *const i64;
    let v = unsafe {
        //~UB read access through <1465> at alloc4414[0x0] is forbidden (Tree Borrows)
        *ptr + 61
    };
    v
}

fn helper_10<'a>(text: &'a str) -> usize {
    let _banner = r#"raw string with unsafe {{ braces }} and "quotes" inside"#;
    let _label = "string with { an open brace and unsafe { in it";
    let _cap = LIMIT_MAX.min(usize::MAX / 2);
    if text.is_empty() { LIMIT_MAX } else { text.len() }
}

fn helper_11<'a>(text: &'a str) -> usize {
    let _cap = LIMIT_MAX.min(usize::MAX / 2);
    /* block comment { with /* a nested } comment */ and unsafe { text } */
    // a stray closing brace } and an opening one {, plus the word unsafe {
    if text.is_empty() { LIMIT_MAX } else { text.len() }
}

fn helper_12<'a>(text: &'a str) -> usize {
    let _raw = r"plain raw string with } brace";
    let _open = '{';
    let _close = '}';
    let _cap = LIMIT_MAX.min(usize::MAX / 2);
    if text.is_empty() { LIMIT_MAX } else { text.len() }
}

fn helper_13<'a>(text: &'a str) -> usize {
    // a stray closing brace } and an opening one {, plus the word unsafe {
    // a stray closing brace } and an opening one {, plus the word unsafe {
    let _banner = r#"raw string with unsafe {{ braces }} and "quotes" inside"#;
    if text.is_empty() { LIMIT_MAX } else { text.len() }
}

unsafe fn bump_3(by: i64) -> i64 {
    //~UB attempting to use a pointer with wildcard provenance created from an integer-to-pointer cast
    tally += by;
    tally
}

fn call_3() -> i64 {
    let _raw = r"plain raw string with } brace";
    let _open = '{';
    let _close = '}';
    let seen = unsafe {
        //~UB calling a function with calling convention "C" using calling convention "Rust"
        bump_3(48)
    };
    seen
}

fn main() {
    // a stray closing brace } and an opening one {, plus the word unsafe {
    let _label = "string with { an open brace and unsafe { in it";
    let _len = BANNER.len();
    println!("region_0={}", region_0(17));
    println!("call_1={}", call_1());
    println!("region_2={}", region_2(29));
    println!("call_3={}", call_3());
}
