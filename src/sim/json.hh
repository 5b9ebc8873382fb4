/**
 * @file
 * A small streaming JSON writer. Every report the tools write
 * (snfsim/snfoltp bench matrices, snfcrash/snfsoak sweep reports)
 * goes through it, so separators, indentation and string escaping
 * live in one place.
 *
 * Layout: a block container puts each member on its own line,
 * indented two spaces per nesting level; an inline container — and
 * everything nested in it — stays on one line with ", " separators.
 * Empty containers print as {} and []. Integers and doubles print
 * exactly as std::ostream prints them; closing the outermost
 * container ends the document with a newline.
 */

#ifndef SNF_SIM_JSON_HH
#define SNF_SIM_JSON_HH

#include <concepts>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace snf
{

/** Streams one JSON document to an ostream (see the file comment). */
class JsonWriter
{
  public:
    enum class Layout
    {
        Block,
        Inline,
    };

    explicit JsonWriter(std::ostream &os) : os(os) {}

    JsonWriter &
    beginObject(Layout layout = Layout::Block)
    {
        return open('{', '}', layout);
    }

    JsonWriter &
    beginArray(Layout layout = Layout::Block)
    {
        return open('[', ']', layout);
    }

    /** Close the innermost open container. */
    JsonWriter &end();
    /** Name the next member of the enclosing object. */
    JsonWriter &key(std::string_view name);

    JsonWriter &value(std::string_view s);
    JsonWriter &value(const char *s) { return value(std::string_view(s)); }
    JsonWriter &value(bool b);
    JsonWriter &value(double d);

    template <std::integral T>
    JsonWriter &
    value(T v)
    {
        return scalar(std::to_string(v));
    }

    /** A double in fixed notation with @p digits decimals (%.*f). */
    JsonWriter &fixed(double d, int digits);

    /** key(@p name) followed by value(@p v). */
    template <typename T>
    JsonWriter &
    field(std::string_view name, const T &v)
    {
        return key(name).value(v);
    }

  private:
    struct Level
    {
        char close;
        bool inlined;
        bool empty = true;
    };

    JsonWriter &open(char openCh, char closeCh, Layout layout);
    JsonWriter &scalar(std::string_view text);
    /** Separator and indentation before a member. */
    void separate();

    std::ostream &os;
    std::vector<Level> levels;
    bool afterKey = false;
};

/**
 * Hand @p write the stream a report path names: stdout for "-", else
 * the file at @p path (fatal() if it cannot be created).
 */
void writeReport(const std::string &path,
                 const std::function<void(std::ostream &)> &write);

} // namespace snf

#endif // SNF_SIM_JSON_HH
