// The framework builtin library — the Android-API surface our samples and
// generated apps program against. Every entry mirrors a framework behaviour
// relevant to the paper's evaluation: taint sources/sinks, string plumbing,
// reflection (Class.forName / getMethod / Method.invoke — the hook point for
// DexLego's reflection-to-direct-call replacement), dynamic DEX loading
// (the packers' release step), UI wiring for the fuzzer, intents for ICC
// samples, and the View-tag marshalling where the TaintDroid/TaintART
// analogs lose taint.
#include <map>
#include <string>
#include <string_view>
#include <utility>

#include "src/dex/io.h"
#include "src/runtime/runtime.h"
#include "src/runtime/source_sink.h"
#include "src/support/bytes.h"

namespace dexlego::rt {

namespace {

// The framework builtins by (class descriptor, method name), with "*" as the
// any-class fallback. Keys order like std::pair and are probed with
// string_views, so a lookup allocates nothing.
class BuiltinTable {
 public:
  // `key` is "Lclass;->method", or "*->method" for any class.
  void add(std::string_view key, NativeFn fn) {
    size_t arrow = key.find("->");
    entries_[{std::string(key.substr(0, arrow)),
              std::string(key.substr(arrow + 2))}] = std::move(fn);
  }

  const NativeFn* find(std::string_view class_descriptor,
                       std::string_view name) const {
    auto it = entries_.find(View(class_descriptor, name));
    if (it == entries_.end()) it = entries_.find(View("*", name));
    return it == entries_.end() ? nullptr : &it->second;
  }

 private:
  using View = std::pair<std::string_view, std::string_view>;
  struct KeyLess {
    using is_transparent = void;
    template <typename A, typename B>
    bool operator()(const A& a, const B& b) const {
      return View(a.first, a.second) < View(b.first, b.second);
    }
  };
  std::map<std::pair<std::string, std::string>, NativeFn, KeyLess> entries_;
};

std::string value_as_string(const Value& v) { return render_value(v); }

uint32_t value_taint(const Value& v) {
  return v.taint | (v.ref != nullptr ? v.ref->taint : 0u);
}

Value make_string(NativeContext& ctx, std::string s, uint32_t taint = 0) {
  return Value::Ref(ctx.runtime.heap().new_string(std::move(s), taint));
}

void throw_ex(NativeContext& ctx, const char* descriptor, std::string msg) {
  ctx.pending_exception = ctx.interp.make_exception(descriptor, std::move(msg));
}

// Converts "com.pkg.Cls" to "Lcom/pkg/Cls;" (accepts descriptors verbatim).
std::string to_descriptor(const std::string& name) {
  if (!name.empty() && name.front() == 'L' && name.back() == ';') return name;
  std::string out = "L";
  for (char c : name) out += (c == '.') ? '/' : c;
  out += ";";
  return out;
}

void install_object_and_strings(BuiltinTable& table) {
  // Constructor chains that bottom out in framework classes are no-ops.
  table.add("*-><init>", [](NativeContext&, std::span<Value>) {
    return Value::Null();
  });

  table.add("Ljava/lang/String;->concat",
            [](NativeContext& ctx, std::span<Value> args) {
              std::string s = value_as_string(args[0]) +
                              (args.size() > 1 ? value_as_string(args[1]) : "");
              uint32_t taint = value_taint(args[0]) |
                               (args.size() > 1 ? value_taint(args[1]) : 0);
              return make_string(ctx, std::move(s), taint);
            });
  table.add("Ljava/lang/String;->equals",
            [](NativeContext&, std::span<Value> args) {
              bool eq = args.size() > 1 &&
                        value_as_string(args[0]) == value_as_string(args[1]);
              uint32_t taint = value_taint(args[0]) |
                               (args.size() > 1 ? value_taint(args[1]) : 0);
              return Value::Int(eq ? 1 : 0, taint);
            });
  table.add("Ljava/lang/String;->length",
            [](NativeContext&, std::span<Value> args) {
              return Value::Int(
                  static_cast<int64_t>(value_as_string(args[0]).size()),
                  value_taint(args[0]));
            });
  table.add("Ljava/lang/String;->isEmpty",
            [](NativeContext&, std::span<Value> args) {
              return Value::Int(value_as_string(args[0]).empty() ? 1 : 0,
                                value_taint(args[0]));
            });
  table.add("Ljava/lang/String;->charAt",
            [](NativeContext& ctx, std::span<Value> args) {
              std::string s = value_as_string(args[0]);
              int64_t i = args.size() > 1 ? args[1].test_value() : 0;
              if (i < 0 || static_cast<size_t>(i) >= s.size()) {
                throw_ex(ctx, "Ljava/lang/StringIndexOutOfBoundsException;",
                         std::to_string(i));
                return Value::Null();
              }
              return Value::Int(s[static_cast<size_t>(i)],
                                value_taint(args[0]));
            });
  table.add("Ljava/lang/String;->substring",
            [](NativeContext& ctx, std::span<Value> args) {
              std::string s = value_as_string(args[0]);
              size_t from = args.size() > 1
                                ? static_cast<size_t>(
                                      std::max<int64_t>(0, args[1].test_value()))
                                : 0;
              if (from > s.size()) from = s.size();
              return make_string(ctx, s.substr(from), value_taint(args[0]));
            });
  table.add("Ljava/lang/String;->contains",
            [](NativeContext&, std::span<Value> args) {
              bool found =
                  args.size() > 1 &&
                  value_as_string(args[0]).find(value_as_string(args[1])) !=
                      std::string::npos;
              return Value::Int(found ? 1 : 0, value_taint(args[0]));
            });
  table.add("Ljava/lang/String;->toUpperCase",
            [](NativeContext& ctx, std::span<Value> args) {
              std::string s = value_as_string(args[0]);
              for (char& c : s) c = static_cast<char>(std::toupper(c));
              return make_string(ctx, std::move(s), value_taint(args[0]));
            });
  table.add("Ljava/lang/String;->hashCode",
            [](NativeContext&, std::span<Value> args) {
              int32_t h = 0;
              for (char c : value_as_string(args[0])) h = 31 * h + c;
              return Value::Int(h, value_taint(args[0]));
            });
  table.add("Ljava/lang/String;->valueOf",
            [](NativeContext& ctx, std::span<Value> args) {
              return make_string(ctx, value_as_string(args[0]),
                                 value_taint(args[0]));
            });
  table.add("Ljava/lang/Integer;->parseInt",
            [](NativeContext& ctx, std::span<Value> args) {
              try {
                return Value::Int(std::stoll(value_as_string(args[0])),
                                  value_taint(args[0]));
              } catch (const std::exception&) {
                throw_ex(ctx, "Ljava/lang/NumberFormatException;",
                         value_as_string(args[0]));
                return Value::Null();
              }
            });
  table.add("Ljava/lang/Integer;->toString",
            [](NativeContext& ctx, std::span<Value> args) {
              return make_string(ctx, std::to_string(args[0].test_value()),
                                 value_taint(args[0]));
            });
  table.add("*->toString", [](NativeContext& ctx, std::span<Value> args) {
    return make_string(ctx, value_as_string(args[0]), value_taint(args[0]));
  });

  // StringBuilder over the receiver's str payload. The receiver must not be
  // a String object: on-device the verifier makes that unrepresentable, and
  // here strings can be shared interned literals (Heap::intern_string) — a
  // hostile invoke-virtual of append on a const-string receiver must not
  // mutate the literal every other use site sees.
  table.add("Ljava/lang/StringBuilder;-><init>",
            [](NativeContext&, std::span<Value> args) {
              if (!args.empty() && args[0].ref != nullptr &&
                  args[0].ref->kind != Object::Kind::kString) {
                args[0].ref->str =
                    args.size() > 1 ? value_as_string(args[1]) : "";
                args[0].ref->taint |=
                    args.size() > 1 ? value_taint(args[1]) : 0;
              }
              return Value::Null();
            });
  table.add("Ljava/lang/StringBuilder;->append",
            [](NativeContext&, std::span<Value> args) {
              if (!args.empty() && args[0].ref != nullptr) {
                if (args.size() > 1 &&
                    args[0].ref->kind != Object::Kind::kString) {
                  args[0].ref->str += value_as_string(args[1]);
                  args[0].ref->taint |= value_taint(args[1]);
                }
                return Value::Ref(args[0].ref);
              }
              return Value::Null();
            });
  table.add("Ljava/lang/StringBuilder;->toString",
            [](NativeContext& ctx, std::span<Value> args) {
              if (!args.empty() && args[0].ref != nullptr) {
                return make_string(ctx, args[0].ref->str,
                                   args[0].ref->taint);
              }
              return Value::Null();
            });

  table.add("Ljava/lang/Math;->abs",
            [](NativeContext&, std::span<Value> args) {
              int64_t v = args[0].test_value();
              return Value::Int(v < 0 ? -v : v, value_taint(args[0]));
            });
  table.add("Ljava/lang/Math;->max",
            [](NativeContext&, std::span<Value> args) {
              return Value::Int(
                  std::max(args[0].test_value(), args[1].test_value()),
                  value_taint(args[0]) | value_taint(args[1]));
            });
  table.add("Ljava/lang/Math;->min",
            [](NativeContext&, std::span<Value> args) {
              return Value::Int(
                  std::min(args[0].test_value(), args[1].test_value()),
                  value_taint(args[0]) | value_taint(args[1]));
            });
  table.add("Ljava/lang/System;->exit",
            [](NativeContext& ctx, std::span<Value>) {
              ctx.interp.request_abort("System.exit");
              return Value::Null();
            });
  table.add("Ljava/lang/System;->currentTimeMillis",
            [](NativeContext& ctx, std::span<Value>) {
              // Deterministic stand-in: the executed-step counter.
              return Value::Int(static_cast<int64_t>(ctx.interp.steps()));
            });
}

void install_sources_and_sinks(BuiltinTable& table) {
  for (const SourceSpec& spec : taint_sources()) {
    std::string key = std::string(spec.class_descriptor) + "->" + spec.method;
    uint32_t taint = spec.taint;
    std::string value = spec.sample_value;
    table.add(key, [taint, value](NativeContext& ctx, std::span<Value>) {
      return make_string(ctx, value, taint);
    });
  }
  for (const SinkSpec& spec : taint_sinks()) {
    std::string key = std::string(spec.class_descriptor) + "->" + spec.method;
    std::string sink_name = spec.sink_name;
    table.add(key, [sink_name](NativeContext& ctx, std::span<Value> args) {
      // Skip the receiver for instance sinks (SmsManager objects carry no
      // data); keep it simple and record all arguments.
      ctx.runtime.record_sink(sink_name, args);
      return Value::Null();
    });
  }
  table.add("Landroid/telephony/SmsManager;->getDefault",
            [](NativeContext& ctx, std::span<Value>) {
              return Value::Ref(ctx.runtime.heap().new_framework(
                  "Landroid/telephony/SmsManager;"));
            });
}

void install_reflection(BuiltinTable& table) {
  table.add(
      "Ljava/lang/Class;->forName", [](NativeContext& ctx, std::span<Value> args) {
        std::string name = value_as_string(args[0]);
        RtClass* cls = ctx.runtime.linker().resolve(to_descriptor(name));
        if (cls == nullptr) {
          throw_ex(ctx, "Ljava/lang/ClassNotFoundException;", name);
          return Value::Null();
        }
        Object* obj = ctx.runtime.heap().new_framework("Ljava/lang/Class;");
        obj->class_ref = cls;
        return Value::Ref(obj);
      });
  table.add(
      "Ljava/lang/Class;->getMethod", [](NativeContext& ctx, std::span<Value> args) {
        if (args[0].is_null_ref() || args[0].ref->class_ref == nullptr) {
          throw_ex(ctx, "Ljava/lang/NullPointerException;", "getMethod on null");
          return Value::Null();
        }
        std::string name = value_as_string(args[1]);
        RtMethod* m = args[0].ref->class_ref->find_dispatch(name, "");
        if (m == nullptr) {
          throw_ex(ctx, "Ljava/lang/NoSuchMethodException;", name);
          return Value::Null();
        }
        Object* obj =
            ctx.runtime.heap().new_framework("Ljava/lang/reflect/Method;");
        obj->method_ref = m;
        return Value::Ref(obj);
      });
  table.add(
      "Ljava/lang/Class;->newInstance",
      [](NativeContext& ctx, std::span<Value> args) {
        if (args[0].is_null_ref() || args[0].ref->class_ref == nullptr) {
          throw_ex(ctx, "Ljava/lang/NullPointerException;", "newInstance on null");
          return Value::Null();
        }
        RtClass* cls = args[0].ref->class_ref;
        ctx.runtime.linker().ensure_initialized(*cls);
        Object* obj = ctx.runtime.heap().new_instance(cls, cls->descriptor,
                                                      cls->instance_slot_count);
        if (RtMethod* ctor = cls->find_declared("<init>", "()V")) {
          auto r = ctx.interp.call(*ctor, {Value::Ref(obj)}, ctx.caller,
                                   ctx.caller_pc);
          if (r.exception != nullptr) {
            ctx.pending_exception = r.exception;
            return Value::Null();
          }
        }
        return Value::Ref(obj);
      });
  table.add(
      "Ljava/lang/reflect/Method;->invoke",
      [](NativeContext& ctx, std::span<Value> args) {
        if (args[0].is_null_ref() || args[0].ref->method_ref == nullptr) {
          throw_ex(ctx, "Ljava/lang/NullPointerException;", "invoke on null Method");
          return Value::Null();
        }
        RtMethod* target = args[0].ref->method_ref;
        // ART resolves the reflective target here — exactly the point where
        // DexLego records it for direct-call replacement (paper IV-D).
        if (ctx.caller != nullptr) {
          ctx.runtime.hook_chain().dispatch_reflective_invoke(
              *ctx.caller, ctx.caller_pc, *target);
        }
        std::vector<Value> call_args;
        if (!target->is_static()) {
          if (args.size() < 2) {
            throw_ex(ctx, "Ljava/lang/IllegalArgumentException;",
                     "missing receiver");
            return Value::Null();
          }
          call_args.push_back(args[1]);
        }
        for (size_t i = 2; i < args.size(); ++i) call_args.push_back(args[i]);
        auto r = ctx.interp.call(*target, std::move(call_args), ctx.caller,
                                 ctx.caller_pc);
        if (r.exception != nullptr) {
          ctx.pending_exception = r.exception;
          return Value::Null();
        }
        return r.ret;
      });
}

void install_platform(BuiltinTable& table) {
  table.add("Landroid/os/Build;->isEmulator",
            [](NativeContext& ctx, std::span<Value>) {
              return Value::Int(ctx.runtime.config().device ==
                                        DeviceProfile::kEmulator
                                    ? 1
                                    : 0);
            });
  table.add("Landroid/os/Build;->isTablet",
            [](NativeContext& ctx, std::span<Value>) {
              return Value::Int(
                  ctx.runtime.config().device == DeviceProfile::kTablet
                      ? 1
                      : 0);
            });
  table.add(
      "Ldexlego/api/Crypto;->xorDecode",
      [](NativeContext& ctx, std::span<Value> args) {
        std::string s = value_as_string(args[0]);
        auto key = static_cast<char>(args.size() > 1 ? args[1].test_value() : 0);
        for (char& c : s) c = static_cast<char>(c ^ key);
        return make_string(ctx, std::move(s),
                           value_taint(args[0]) |
                               (args.size() > 1 ? value_taint(args[1]) : 0));
      });
  table.add("Ldexlego/api/Io;->writeFile",
            [](NativeContext& ctx, std::span<Value> args) {
              // Taint intentionally dropped: no evaluated tool models
              // external-file flows (paper, PrivateDataLeak3).
              ctx.runtime.fs_write(value_as_string(args[0]),
                                   value_as_string(args[1]));
              return Value::Null();
            });
  table.add(
      "Landroid/view/Choreographer;->renderFrames",
      [](NativeContext&, std::span<Value> args) {
        // Framework init/display stand-in: native-side busy work that
        // instrumentation does not slow down (launch-time model, Table VIII).
        int64_t k = args.empty() ? 1 : args[0].test_value();
        uint64_t x = 88172645463325252ull;
        for (int64_t i = 0; i < k * 1000; ++i) {
          x ^= x << 13;
          x ^= x >> 7;
          x ^= x << 17;
        }
        return Value::Int(static_cast<int64_t>(x & 0x7fffffff));
      });
  table.add(
      "Ldexlego/api/Sanitizer;->scrub",
      [](NativeContext& ctx, std::span<Value> args) {
        // Declassification: returns the content with taint cleared.
        return make_string(ctx, args.empty() ? "" : value_as_string(args[0]), 0);
      });
  table.add("Ldexlego/api/Io;->readFile",
            [](NativeContext& ctx, std::span<Value> args) {
              auto data = ctx.runtime.fs_read(value_as_string(args[0]));
              return make_string(ctx, data.value_or(""), 0);
            });
}

void install_ui_and_intents(BuiltinTable& table) {
  table.add("Landroid/app/Activity;->setContentView",
            [](NativeContext&, std::span<Value>) { return Value::Null(); });
  table.add("Landroid/app/Activity;->findViewById",
            [](NativeContext& ctx, std::span<Value> args) {
              int id = static_cast<int>(
                  args.size() > 1 ? args[1].test_value() : 0);
              return Value::Ref(ctx.runtime.ui_view(id));
            });
  table.add(
      "Landroid/view/View;->setOnClickListener",
      [](NativeContext& ctx, std::span<Value> args) {
        if (!args[0].is_null_ref()) {
          auto it = args[0].ref->bag.find("id");
          int id = it != args[0].ref->bag.end()
                       ? static_cast<int>(it->second.test_value())
                       : 0;
          ctx.runtime.ui_set_click_listener(id,
                                            args.size() > 1 ? args[1] : Value::Null());
        }
        return Value::Null();
      });
  // View tags marshal through the framework: the dynamic-taint presets lose
  // taint here (taint_through_framework=false), static summaries keep it.
  table.add("Landroid/view/View;->setTag",
            [](NativeContext& ctx, std::span<Value> args) {
              if (!args[0].is_null_ref() && args.size() > 1) {
                args[0].ref->bag["tag"] =
                    ctx.runtime.framework_marshal(args[1]);
              }
              return Value::Null();
            });
  table.add("Landroid/view/View;->getTag",
            [](NativeContext&, std::span<Value> args) {
              if (!args[0].is_null_ref()) {
                auto it = args[0].ref->bag.find("tag");
                if (it != args[0].ref->bag.end()) return it->second;
              }
              return Value::Null();
            });
  table.add("Landroid/widget/EditText;->getText",
            [](NativeContext& ctx, std::span<Value> args) {
              int id = 0;
              if (!args[0].is_null_ref()) {
                auto it = args[0].ref->bag.find("id");
                if (it != args[0].ref->bag.end()) {
                  id = static_cast<int>(it->second.test_value());
                }
              }
              return make_string(ctx, ctx.runtime.text_input(id));
            });

  table.add("Landroid/content/Intent;-><init>",
            [](NativeContext& ctx, std::span<Value> args) {
              if (!args[0].is_null_ref() && args.size() > 1) {
                args[0].ref->bag["target"] = Value::Ref(
                    ctx.runtime.heap().new_string(
                        to_descriptor(value_as_string(args[1]))));
              }
              return Value::Null();
            });
  table.add("Landroid/content/Intent;->putExtra",
            [](NativeContext&, std::span<Value> args) {
              if (!args[0].is_null_ref() && args.size() > 2) {
                args[0].ref->bag["extra:" + value_as_string(args[1])] =
                    args[2];
              }
              return args.empty() ? Value::Null() : args[0];
            });
  table.add("Landroid/content/Intent;->getStringExtra",
            [](NativeContext&, std::span<Value> args) {
              if (!args[0].is_null_ref() && args.size() > 1) {
                auto it = args[0].ref->bag.find(
                    "extra:" + value_as_string(args[1]));
                if (it != args[0].ref->bag.end()) return it->second;
              }
              return Value::Null();
            });
  table.add("Landroid/app/Activity;->startActivity",
            [](NativeContext& ctx, std::span<Value> args) {
              if (args.size() > 1 && !args[1].is_null_ref()) {
                ctx.runtime.start_activity_obj(args[1].ref);
              }
              return Value::Null();
            });
  table.add("Landroid/app/Activity;->getIntent",
            [](NativeContext& ctx, std::span<Value>) {
              Object* intent = ctx.runtime.current_intent();
              return intent != nullptr ? Value::Ref(intent) : Value::Null();
            });
  table.add(
      "Landroid/os/Handler;->post", [](NativeContext& ctx, std::span<Value> args) {
        // Synchronous dispatch of Runnable.run() — enough for callback samples.
        if (args.size() > 1 && !args[1].is_null_ref() &&
            args[1].ref->klass != nullptr) {
          if (RtMethod* run = args[1].ref->klass->find_dispatch("run", "()V")) {
            auto r = ctx.interp.call(*run, {args[1]}, ctx.caller, ctx.caller_pc);
            if (r.exception != nullptr) ctx.pending_exception = r.exception;
          }
        }
        return Value::Null();
      });
}

void install_dynamic_loading(BuiltinTable& table) {
  table.add(
      "Ldalvik/system/DexClassLoader;->loadFromAsset",
      [](NativeContext& ctx, std::span<Value> args) {
        const dex::Apk* apk = ctx.runtime.apk();
        if (apk == nullptr) {
          throw_ex(ctx, "Ljava/io/IOException;", "no apk");
          return Value::Null();
        }
        std::string asset = value_as_string(args[0]);
        if (!apk->has_entry(asset)) {
          throw_ex(ctx, "Ljava/io/FileNotFoundException;", asset);
          return Value::Null();
        }
        std::vector<uint8_t> bytes = apk->entry(asset);
        auto key = static_cast<uint8_t>(args.size() > 1 ? args[1].test_value() : 0);
        if (key != 0) {
          uint8_t rolling = key;
          for (uint8_t& b : bytes) {
            b ^= rolling;
            rolling = static_cast<uint8_t>(rolling * 31 + 7);
          }
        }
        try {
          ctx.runtime.load_dex_buffer(bytes, "dynamic:" + asset);
        } catch (const support::ParseError& e) {
          throw_ex(ctx, "Ljava/lang/ClassNotFoundException;", e.what());
        }
        return Value::Null();
      });
  table.add("Ldalvik/system/DexClassLoader;->loadClass",
            [](NativeContext& ctx, std::span<Value> args) {
              // Same resolution path as Class.forName.
              std::string name =
                  value_as_string(args[args.size() > 1 ? 1 : 0]);
              RtClass* cls =
                  ctx.runtime.linker().resolve(to_descriptor(name));
              if (cls == nullptr) {
                throw_ex(ctx, "Ljava/lang/ClassNotFoundException;", name);
                return Value::Null();
              }
              Object* obj = ctx.runtime.heap().new_framework(
                  "Ljava/lang/Class;");
              obj->class_ref = cls;
              return Value::Ref(obj);
            });
}

}  // namespace

const NativeFn* Runtime::find_builtin(std::string_view class_descriptor,
                                      std::string_view name) {
  // Built once per process; immutable afterwards, so every runtime on every
  // thread shares it. No builtin keeps state between calls: per-runtime
  // state lives in the NativeContext's runtime.
  static const BuiltinTable table = [] {
    BuiltinTable t;
    install_object_and_strings(t);
    install_sources_and_sinks(t);
    install_reflection(t);
    install_platform(t);
    install_ui_and_intents(t);
    install_dynamic_loading(t);
    return t;
  }();
  return table.find(class_descriptor, name);
}

}  // namespace dexlego::rt
